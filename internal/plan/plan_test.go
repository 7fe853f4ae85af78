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
}

func TestDecide(t *testing.T) {
	cases := []struct {
		name string
		in   Inputs
		want Decision
	}{
		{
			name: "breaker not ready degrades",
			in:   Inputs{BreakerReady: false},
			want: Decision{Start: TierMaterialized, Reason: "breaker"},
		},
		{
			name: "calibrated estimate over budget degrades",
			in:   Inputs{BreakerReady: true, HaveDeadline: true, Budget: 10 * time.Millisecond, Estimate: 50 * time.Millisecond, Calibrated: true},
			want: Decision{Start: TierMaterialized, Reason: "budget"},
		},
		{
			name: "uncalibrated estimate stays optimistic",
			in:   Inputs{BreakerReady: true, HaveDeadline: true, Budget: 10 * time.Millisecond, Estimate: 50 * time.Millisecond, Calibrated: false},
			want: Decision{Start: TierFull, Reason: "ok"},
		},
		{
			name: "no deadline skips budget check",
			in:   Inputs{BreakerReady: true, HaveDeadline: false, Estimate: time.Hour, Calibrated: true},
			want: Decision{Start: TierFull, Reason: "ok"},
		},
		{
			name: "estimate within budget stays full",
			in:   Inputs{BreakerReady: true, HaveDeadline: true, Budget: time.Second, Estimate: 50 * time.Millisecond, Calibrated: true},
			want: Decision{Start: TierFull, Reason: "ok"},
		},
	}
	for _, tc := range cases {
		if got := Decide(tc.in); got != tc.want {
			t.Errorf("%s: Decide = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
