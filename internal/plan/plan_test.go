package plan

import "testing"

func TestTierAndPolicyStrings(t *testing.T) {
	want := map[Tier]string{
		TierFull:         "full",
		TierMaterialized: "materialized",
		TierUnavailable:  "unavailable",
	}
	for tier, s := range want {
		if got := tier.String(); got != s {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, s)
		}
	}
	if len(Tiers) != 3 {
		t.Fatalf("Tiers has %d entries, want 3", len(Tiers))
	}
}
