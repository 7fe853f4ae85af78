package plan

import (
	"testing"
	"time"
)

func TestTierAndPolicyStrings(t *testing.T) {
	want := map[Tier]string{
		TierFull:         "full",
		TierMaterialized: "materialized",
		TierStale:        "stale",
		TierUnavailable:  "unavailable",
	}
	for tier, s := range want {
		if got := tier.String(); got != s {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, s)
		}
	}
	if len(Tiers) != 4 {
		t.Fatalf("Tiers has %d entries, want 4", len(Tiers))
	}
	for p, s := range map[Policy]string{PolicyAuto: "auto", PolicyFull: "full", PolicyMaterialized: "materialized"} {
		if got := p.String(); got != s {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, s)
		}
		rt, err := ParsePolicy(s)
		if err != nil || rt != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, nil", s, rt, err, p)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) succeeded, want error")
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyAuto {
		t.Errorf("ParsePolicy(\"\") = %v, %v; want auto, nil", p, err)
	}
}

func TestDecide(t *testing.T) {
	cases := []struct {
		name string
		in   Inputs
		want Decision
	}{
		{
			name: "policy full ignores everything",
			in:   Inputs{Policy: PolicyFull, BreakerReady: false, HaveDeadline: true, Budget: 0, Estimate: time.Hour, Calibrated: true},
			want: Decision{Start: TierFull, Reason: "policy"},
		},
		{
			name: "policy materialized ignores everything",
			in:   Inputs{Policy: PolicyMaterialized, BreakerReady: true},
			want: Decision{Start: TierMaterialized, Reason: "policy"},
		},
		{
			name: "breaker not ready degrades",
			in:   Inputs{Policy: PolicyAuto, BreakerReady: false},
			want: Decision{Start: TierMaterialized, Reason: "breaker"},
		},
		{
			name: "calibrated estimate over budget degrades",
			in:   Inputs{Policy: PolicyAuto, BreakerReady: true, HaveDeadline: true, Budget: 10 * time.Millisecond, Estimate: 50 * time.Millisecond, Calibrated: true},
			want: Decision{Start: TierMaterialized, Reason: "budget"},
		},
		{
			name: "uncalibrated estimate stays optimistic",
			in:   Inputs{Policy: PolicyAuto, BreakerReady: true, HaveDeadline: true, Budget: 10 * time.Millisecond, Estimate: 50 * time.Millisecond, Calibrated: false},
			want: Decision{Start: TierFull, Reason: "ok"},
		},
		{
			name: "no deadline skips budget check",
			in:   Inputs{Policy: PolicyAuto, BreakerReady: true, HaveDeadline: false, Estimate: time.Hour, Calibrated: true},
			want: Decision{Start: TierFull, Reason: "ok"},
		},
		{
			name: "estimate within budget stays full",
			in:   Inputs{Policy: PolicyAuto, BreakerReady: true, HaveDeadline: true, Budget: time.Second, Estimate: 50 * time.Millisecond, Calibrated: true},
			want: Decision{Start: TierFull, Reason: "ok"},
		},
	}
	for _, tc := range cases {
		if got := Decide(tc.in); got != tc.want {
			t.Errorf("%s: Decide = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestConfigFill(t *testing.T) {
	var c Config
	c.Fill()
	if c.StaleTTL != 5*time.Minute {
		t.Errorf("stale TTL default = %v, want 5m", c.StaleTTL)
	}

	off := Config{StaleTTL: -1}
	off.Fill()
	if off.StaleTTL != -1 {
		t.Errorf("negative StaleTTL (stale tier off) overwritten to %v", off.StaleTTL)
	}
}
