package plan

import (
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestBreakerDisabled(t *testing.T) {
	br := NewBreaker(BreakerConfig{Threshold: 0})
	if br != nil {
		t.Fatal("Threshold 0 should return a nil (disabled) breaker")
	}
	// All methods must be safe and permissive on nil.
	if !br.Allow() || br.State() != Closed {
		t.Error("nil breaker must be always-closed and admitting")
	}
	br.OnSuccess()
	br.OnFailure()
}

func TestBreakerTripAndRecover(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var trans []string
	br := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, MaxCooldown: 4 * time.Second, Jitter: 0.2, Now: clk.now,
		OnStateChange: func(from, to State) { trans = append(trans, from.String()+"->"+to.String()) }})

	// Two failures: still closed.
	br.OnFailure()
	br.OnFailure()
	if br.State() != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", br.State())
	}
	// A success resets the streak.
	br.OnSuccess()
	br.OnFailure()
	br.OnFailure()
	if br.State() != Closed {
		t.Fatal("streak should have reset on success")
	}
	// Third consecutive failure trips.
	br.OnFailure()
	if br.State() != Open || br.Allow() {
		t.Fatalf("state after trip = %v, want open and rejecting", br.State())
	}

	// Before cooldown: still open. Jitter is ±20% of 1s, so 500ms is safe.
	clk.advance(500 * time.Millisecond)
	if br.State() != Open {
		t.Fatal("breaker ready before cooldown expired")
	}
	// Past max jittered cooldown: half-open, one probe slot.
	clk.advance(time.Second)
	if br.State() != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", br.State())
	}
	if !br.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if br.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// Successful probe closes and resets backoff.
	br.OnSuccess()
	if br.State() != Closed || !br.Allow() {
		t.Fatalf("state after successful probe = %v, want closed", br.State())
	}

	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", trans, want)
		}
	}
}

func TestBreakerBackoffDoublesAndCaps(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, MaxCooldown: 4 * time.Second, Jitter: 0.001, Now: clk.now})

	cooldowns := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second}
	br.OnFailure() // trip with 1s cooldown
	for i, cd := range cooldowns {
		if br.State() != Open {
			t.Fatalf("round %d: state = %v, want open", i, br.State())
		}
		// Under the jittered reopen time: still open.
		clk.advance(time.Duration(float64(cd) * 0.9))
		if br.State() != Open {
			t.Fatalf("round %d: not open %v before cooldown %v elapsed", i, time.Duration(float64(cd)*0.9), cd)
		}
		// Past it (jitter ±0.1%): half-open.
		clk.advance(time.Duration(float64(cd) * 0.2))
		if !br.Allow() {
			t.Fatalf("round %d: probe refused after cooldown", i)
		}
		br.OnFailure() // failed probe: reopen with doubled (capped) cooldown
	}

	// A successful probe resets the backoff to the base cooldown.
	clk.advance(5 * time.Second)
	if !br.Allow() {
		t.Fatal("probe refused after final cooldown")
	}
	br.OnSuccess()
	br.OnFailure() // trip again
	clk.advance(1100 * time.Millisecond)
	if br.State() != HalfOpen {
		t.Fatal("backoff did not reset to base cooldown after successful probe")
	}
}

func TestBreakerLateFailureWhileOpenIsNoop(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, MaxCooldown: time.Second, Jitter: 0.001, Now: clk.now})
	br.OnFailure()
	if br.State() != Open {
		t.Fatal("did not trip")
	}
	reopen := br.reopenAt
	// A straggler build finishing after the trip must not extend the cooldown.
	br.OnFailure()
	if !br.reopenAt.Equal(reopen) {
		t.Error("late failure while open extended the cooldown")
	}
}

func TestBreakerJitterBounds(t *testing.T) {
	for seed := uint64(1); seed < 64; seed++ {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, MaxCooldown: time.Second, Jitter: 0.2, Seed: seed, Now: clk.now})
		br.OnFailure()
		d := br.reopenAt.Sub(clk.t)
		if d < 800*time.Millisecond || d >= 1200*time.Millisecond {
			t.Fatalf("seed %d: jittered cooldown %v outside [800ms, 1200ms)", seed, d)
		}
	}
}
