package core

// queryGate drains an engine's in-flight queries: every engine's
// Retire (an engine swap) refuses new queries and waits for the ones it
// admitted before cancelling their builds, and a loaded engine's Close
// waits before it munmaps the file mappings its indexes are views into
// (a reader would fault). Every online entry point of every engine
// acquires the gate for its duration; closeAndDrain flips it closed and
// blocks until the in-flight count drains.
//
// Engine entry points nest (Search → SearchTopics → Summarize), so the
// gate is acquired only at the outermost boundary: Engine.acquire tags
// the request context with a token naming this gate, and nested entries
// on the same engine that see it piggyback on the already-held gate
// instead of re-acquiring (another engine's token does not count).
// That makes closing strict — it refuses every new top-level query —
// while letting in-flight queries (and everything they nest) run to
// completion, so the in-flight count decreases monotonically once
// closing is set and the drain always converges, even under a steady
// stream of new arrivals (they are all refused).

import "sync"

type queryGate struct {
	mu      sync.Mutex
	n       int           // in-flight top-level queries
	closing bool          // set by closeAndDrain; refuses new acquires
	idle    chan struct{} // closed when n hits 0 while closing
}

// acquire registers an in-flight top-level query; it fails once the
// gate is closing. On success the caller must call the returned release
// exactly once.
func (g *queryGate) acquire() (release func(), ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closing {
		return nil, false
	}
	g.n++
	return g.release, true
}

func (g *queryGate) release() {
	g.mu.Lock()
	g.n--
	if g.n == 0 && g.closing && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
	g.mu.Unlock()
}

// closeAndDrain marks the gate closing and blocks until no query is in
// flight. Idempotent; concurrent calls all block until idle.
func (g *queryGate) closeAndDrain() {
	g.mu.Lock()
	g.closing = true
	if g.n == 0 {
		g.mu.Unlock()
		return
	}
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	ch := g.idle
	g.mu.Unlock()
	<-ch
}
