package plan

import (
	"sync"
	"time"
)

// State is a circuit breaker state.
type State int

const (
	// Closed admits every build (healthy).
	Closed State = iota
	// HalfOpen admits exactly one probe build; its outcome decides
	// whether the breaker closes again or re-opens with a longer
	// cooldown.
	HalfOpen
	// Open rejects builds until the cooldown expires.
	Open
)

// String returns the state's metric/log name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes one Breaker. The zero value (Threshold 0) is a
// disabled breaker: always Closed, always admitting.
type BreakerConfig struct {
	// Threshold is the number of consecutive build failures that trips
	// the breaker open. <= 0 disables the breaker entirely.
	Threshold int
	// Cooldown is the first open interval; each failed half-open probe
	// doubles it up to MaxCooldown, and a successful probe resets it.
	// Defaults: 1s and 30s.
	Cooldown    time.Duration
	MaxCooldown time.Duration
	// Jitter spreads reopen instants by ±Jitter fraction of the cooldown
	// (default 0.2) so restarting replicas don't probe in lockstep.
	Jitter float64
	// Seed seeds the jitter PRNG; 0 uses a fixed default (determinism is
	// fine — jitter decorrelates processes via their distinct seeds, and
	// tests want reproducibility).
	Seed uint64
	// Now overrides the clock for tests.
	Now func() time.Time
	// OnStateChange, when set, observes every transition. Called with
	// the breaker's lock held — keep it cheap (metric updates).
	OnStateChange func(from, to State)
}

func (c *BreakerConfig) fill() {
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.MaxCooldown < c.Cooldown {
		c.MaxCooldown = 30 * time.Second
		if c.MaxCooldown < c.Cooldown {
			c.MaxCooldown = c.Cooldown
		}
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Breaker is a consecutive-failure circuit breaker around summarizer
// builds. The build path calls Allow exactly once per build it is about
// to run — never for a cache hit, which would waste the half-open probe
// and could keep the breaker open forever — and reports the outcome via
// OnSuccess/OnFailure.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int           // consecutive failures while Closed
	cooldown time.Duration // current open interval (backoff)
	reopenAt time.Time     // when Open may transition to HalfOpen
	probing  bool          // a half-open probe is in flight
	rng      uint64        // xorshift64 state for jitter
}

// NewBreaker builds a breaker; nil is returned for a disabled config so
// callers can keep a nil-check fast path.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	cfg.fill()
	return &Breaker{cfg: cfg, cooldown: cfg.Cooldown, rng: cfg.Seed}
}

// State returns the current state, resolving an expired cooldown to
// HalfOpen. A nil (disabled) breaker is always Closed.
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Allow asks to run one build. In HalfOpen it consumes the single probe
// slot; the caller MUST then call exactly one of OnSuccess or OnFailure
// (even on panic — the engine wraps builds to guarantee it), or the
// slot leaks and the breaker stays half-open.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// OnSuccess records a successful build: resets the failure streak and,
// after a successful half-open probe, closes the breaker and resets the
// backoff.
func (b *Breaker) OnSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state == HalfOpen {
		b.probing = false
		b.cooldown = b.cfg.Cooldown
		b.transitionLocked(Closed)
	}
}

// OnFailure records a failed build. While Closed it advances the streak
// and trips Open at the threshold; a failed half-open probe re-opens
// with doubled (capped, jittered) cooldown.
func (b *Breaker) OnFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.tripLocked()
		}
	case HalfOpen:
		b.probing = false
		b.cooldown *= 2
		if b.cooldown > b.cfg.MaxCooldown {
			b.cooldown = b.cfg.MaxCooldown
		}
		b.tripLocked()
	}
	// Open: a straggler build finishing after the trip changes nothing.
}

// tripLocked moves to Open and schedules the half-open probe time with
// jitter applied to the current cooldown.
func (b *Breaker) tripLocked() {
	b.failures = 0
	d := b.cooldown
	if j := b.cfg.Jitter; j > 0 {
		// Jitter in [1-j, 1+j): decorrelates probe instants without a
		// global PRNG (pitlint norandglobal).
		d = time.Duration(float64(d) * (1 - j + 2*j*b.randLocked()))
	}
	b.reopenAt = b.cfg.Now().Add(d)
	b.transitionLocked(Open)
}

// maybeHalfOpenLocked resolves an expired Open cooldown into HalfOpen.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == Open && !b.cfg.Now().Before(b.reopenAt) {
		b.probing = false
		b.transitionLocked(HalfOpen)
	}
}

func (b *Breaker) transitionLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, to)
	}
}

// randLocked returns a uniform float64 in [0,1) from the breaker's own
// xorshift64 stream (caller holds b.mu).
func (b *Breaker) randLocked() float64 {
	r := b.rng
	r ^= r << 13
	r ^= r >> 7
	r ^= r << 17
	b.rng = r
	return float64(r>>11) / (1 << 53)
}
