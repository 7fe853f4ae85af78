// Package subscribe implements standing queries over a streaming
// engine: a client registers a personalized influential-topic query
// once and is pushed a fresh top-k whenever an applied update batch
// could have changed its answer (arXiv 1802.05305's subscription model,
// adapted to the paper's topic search).
//
// The dispatch is filtered twice. First structurally: a subscription is
// re-evaluated only when its q-related topic set intersects the batch's
// affected-topic set — the summarization's locality (DESIGN.md §15)
// guarantees an untouched topic's influence is unchanged, so disjoint
// subscriptions cannot have moved. Then by value: a push goes out only
// when the re-evaluated top-k *ranking* differs from the last pushed
// one. A push reports a changed top-k, and a batch can move scores
// without moving the ranking. (Scores move only when the graph does: a
// patch is bit for bit a build over the new graph at the same seed.)
//
// Delivery is latest-wins: each subscription holds a one-slot buffer
// and an undelivered push is replaced, never queued, so a slow SSE
// consumer observes the newest answer late instead of a backlog of
// stale ones.
package subscribe

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topics"
)

// Engine is the query surface a standing query evaluates against — a
// single *core.Engine or the multi-shard router; subscriptions are
// indifferent to how the answer is assembled.
type Engine interface {
	Graph() *graph.Graph
	Space() *topics.Space
	core.Runner
}

// Push is one delivered answer. Seq is the stream batch sequence that
// triggered it; 0 marks the initial evaluation at subscribe time.
type Push struct {
	Seq     uint64
	Results []core.TopicResult
}

// Subscription is one registered standing query. Receive pushes from C;
// the registry owner calls Unsubscribe when the consumer goes away.
type Subscription struct {
	id uint64
	q  core.Query
	ch chan Push

	mu   sync.Mutex
	last []topics.TopicID // ranking of the last queued push
}

// C is the push channel: one-slot, latest-wins. It is never closed —
// consumers select against their own done signal.
func (s *Subscription) C() <-chan Push { return s.ch }

// ID identifies the subscription within its registry.
func (s *Subscription) ID() uint64 { return s.id }

// Query returns the registered standing query.
func (s *Subscription) Query() core.Query { return s.q }

// rankingChanged records ids as the latest ranking and reports whether
// it differs from the previous one.
func (s *Subscription) rankingChanged(ids []topics.TopicID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slices.Equal(ids, s.last) {
		return false
	}
	s.last = ids
	return true
}

// deliver queues p latest-wins: a full buffer has its undelivered push
// replaced. Reports whether an undelivered push was displaced.
func (s *Subscription) deliver(p Push) (displaced bool) {
	select {
	case s.ch <- p:
		return false
	default:
	}
	select {
	case <-s.ch:
		displaced = true
	default:
	}
	select {
	case s.ch <- p:
	default:
		// The consumer raced the displaced slot away; it holds a push
		// at least as fresh as the one it took, so dropping p here
		// still leaves it one dispatch behind at most.
		displaced = true
	}
	return displaced
}

// Registry holds the live subscriptions and re-evaluates them after
// each applied batch. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	subs map[uint64]*Subscription
	next uint64
	met  *regMetrics
}

// NewRegistry returns an empty registry, instrumented when reg is
// non-nil.
func NewRegistry(reg *obs.Registry) *Registry {
	r := &Registry{subs: map[uint64]*Subscription{}}
	if reg != nil {
		r.met = newRegMetrics(reg)
	}
	return r
}

// Len reports the number of live subscriptions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Subscribe validates q — a keyword query, the same parameters as
// one-shot /search — against eng, evaluates it once, and registers it
// as a standing query; the initial answer is already queued on the
// returned subscription's channel (Seq 0). Standing queries are always
// evaluated at full fidelity (q.Fidelity is overridden): a push decision
// compares rankings, and a degraded ranking would read as a change.
func (r *Registry) Subscribe(ctx context.Context, eng Engine, q core.Query) (*Subscription, error) {
	if q.K <= 0 {
		return nil, fmt.Errorf("subscribe: k = %d: need k > 0", q.K)
	}
	if !eng.Graph().Valid(q.User) {
		return nil, fmt.Errorf("subscribe: unknown user %d", q.User)
	}
	if len(eng.Space().Related(q.Text)) == 0 {
		return nil, fmt.Errorf("subscribe: no topics relate to %q", q.Text)
	}
	q.Fidelity = core.FidelityFull
	ans, err := eng.Run(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("subscribe: initial evaluation: %w", err)
	}
	s := &Subscription{q: q, ch: make(chan Push, 1)}
	s.rankingChanged(ranking(ans.Results))
	s.deliver(Push{Seq: 0, Results: ans.Results})

	r.mu.Lock()
	r.next++
	s.id = r.next
	r.subs[s.id] = s
	n := len(r.subs)
	r.mu.Unlock()
	if r.met != nil {
		r.met.active.Set(int64(n))
	}
	return s, nil
}

// Unsubscribe removes the subscription. Unknown IDs are a no-op.
func (r *Registry) Unsubscribe(id uint64) {
	r.mu.Lock()
	delete(r.subs, id)
	n := len(r.subs)
	r.mu.Unlock()
	if r.met != nil {
		r.met.active.Set(int64(n))
	}
}

// Dispatch re-evaluates every subscription whose q-related topics
// intersect the affected set (sorted topic IDs) against eng, and queues
// a push where the top-k ranking changed. seq tags the pushes with the
// triggering batch. Evaluation failures skip the subscription — it
// keeps its previous answer and is retried on the next batch.
func (r *Registry) Dispatch(ctx context.Context, eng Engine, affected []topics.TopicID, seq uint64) {
	if eng == nil || len(affected) == 0 {
		return
	}
	r.mu.Lock()
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.mu.Unlock()

	for _, s := range subs {
		if ctx.Err() != nil {
			return
		}
		if !intersects(eng.Space().Related(s.q.Text), affected) {
			if r.met != nil {
				r.met.skipped.Inc()
			}
			continue
		}
		if r.met != nil {
			r.met.evals.Inc()
		}
		ans, err := eng.Run(ctx, s.q)
		if err != nil {
			if r.met != nil {
				r.met.evalErrors.Inc()
			}
			continue
		}
		if !s.rankingChanged(ranking(ans.Results)) {
			continue
		}
		displaced := s.deliver(Push{Seq: seq, Results: ans.Results})
		if r.met != nil {
			r.met.pushes.Inc()
			if displaced {
				r.met.displaced.Inc()
			}
		}
	}
}

// ranking projects results onto their ordered topic IDs — the value a
// push decision compares. Scores are excluded deliberately: a push
// reports a changed top-k, and a batch can move scores without moving
// the ranking.
func ranking(res []core.TopicResult) []topics.TopicID {
	ids := make([]topics.TopicID, len(res))
	for i, r := range res {
		ids[i] = r.Topic.ID
	}
	return ids
}

// intersects reports whether two sorted topic-ID slices share an
// element.
func intersects(a, b []topics.TopicID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
