// Package stream turns the batch refresh of internal/dynamic into a
// continuously updating pipeline. The paper's offline summarization is
// refreshed "after a period of time" (§4.4); PR 3–6 made that refresh
// incremental and PR 8 made retirement drain-safe — this package adds
// the missing event surface, in the spirit of influential-user
// subscription over time-decaying social streams (arXiv 1802.05305):
//
//   - callers Update with ordered edge events (upserts and deletes) and
//     new users, admitted together or not at all;
//   - the pipeline coalesces them into a dynamic.Batch, flushing when
//     the batch reaches Config.BatchSize events or the oldest pending
//     event reaches Config.MaxAge;
//   - each flush applies the batch to the deployment, not to a shard:
//     one dynamic.Apply and one affected set, then one dynamic.Rebuild
//     per shard engine over the one updated graph (rebuild + carry that
//     shard's unaffected summaries). The fresh engines are published
//     together as the next core.Generation, with one pointer store, or
//     not at all, and only then is the old generation Retired —
//     refusing new queries, draining in-flight ones, and only then
//     cancelling its engines' lifecycles;
//   - optional time decay fades an event's edge weight between its
//     enqueue time and its application, so influence observed long
//     before the rebuild lands weaker than influence observed just now.
//
// Readers follow the deployment through Pipeline.Current, loading one
// generation per request and holding it; a reader that loses the swap
// race (loaded the old generation, found a gate closed) gets
// core.ErrNotReady and retries on the new one — shard.Router does.
package stream

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Event is one edge observation in the stream: Weight > 0 upserts the
// edge From→To, Weight = 0 deletes it. At is the observation time; the
// pipeline stamps zero values at Submit. With decay enabled, At is the
// reference point the weight fades from.
type Event struct {
	From, To graph.NodeID
	Weight   float64
	At       time.Time
}

// ApplyResult describes one applied batch: what changed and what the
// refresh reused. OnApply receives it after every shard has swapped,
// before the old engines are retired.
type ApplyResult struct {
	// Seq numbers applied batches from 1, in application order: the ID
	// of the generation that serves the batch.
	Seq uint64
	// Batch is the coalesced update set, weights already decayed.
	Batch dynamic.Batch
	// Stats is the refresh outcome: invalidated topics and carried
	// summary counts per method, summed over the shards.
	Stats dynamic.RefreshStats
	// Lag is the age of the oldest event in the batch at publish time:
	// batching delay plus rebuild time.
	Lag time.Duration
}

// Config parameterizes a Pipeline. The zero value gets sensible
// defaults from New.
type Config struct {
	// BatchSize flushes the pending batch when it holds this many
	// events (default 256).
	BatchSize int
	// MaxAge flushes the pending batch when its oldest event reaches
	// this age (default 1s), bounding staleness under a trickle.
	MaxAge time.Duration
	// DecayHalfLife > 0 halves an event's upsert weight for every
	// half-life between its observation and its application. Decay is
	// applied to *queued events*, not to the standing graph: re-decaying
	// every edge at every flush would mark the whole graph affected and
	// defeat the incremental refresh (see DESIGN.md §15).
	DecayHalfLife time.Duration
	// Metrics registers pipeline instrumentation when set.
	Metrics *obs.Registry
	// PrepareEngine, when set, runs on each shard's refreshed engine
	// after every rebuild has succeeded and before any is published —
	// the seam for carrying per-engine configuration (fault injectors,
	// summarizer overrides) across swaps.
	PrepareEngine func(shard int, eng *core.Engine)
	// OnApply, when set, runs synchronously once per applied batch with
	// every shard's fresh engine serving and the old engines not yet
	// retired — the subscription-dispatch hook. ctx is the flush's
	// context (the pipeline lifecycle for background flushes).
	OnApply func(ctx context.Context, r ApplyResult)
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// Logger receives apply failures from the background loop (default
	// log.Default()).
	Logger *log.Logger
}

// DecayedWeight fades w by age under an exponential half-life:
// w · 2^(−age/halfLife). A non-positive half-life or age leaves w
// untouched. For w in (0, 1] the result stays in [0, w]: it never leaves
// the graph's weight domain upwards, and it reaches exactly 0 only by
// float underflow, some 1 075 half-lives on (-decay-halflife 10ms under
// -stream-max-age 30s gets there). A weight of 0 means "delete" to
// dynamic.Apply, which a faded observation is not, so Flush drops a fully
// decayed upsert instead of forwarding it.
func DecayedWeight(w float64, age, halfLife time.Duration) float64 {
	if halfLife <= 0 || age <= 0 {
		return w
	}
	return w * math.Exp2(-float64(age)/float64(halfLife))
}

// validateEvent rejects events the graph layer would refuse at apply
// time, so one bad event fails its Submit call instead of poisoning a
// whole batch: endpoints must be within the grown node range and an
// upsert weight must be a probability in (0, 1].
func validateEvent(ev Event, nodes int) error {
	if ev.From < 0 || ev.To < 0 || int(ev.From) >= nodes || int(ev.To) >= nodes {
		return fmt.Errorf("stream: event %d→%d outside graph (%d nodes)", ev.From, ev.To, nodes)
	}
	if ev.From == ev.To {
		return fmt.Errorf("stream: self loop %d→%d", ev.From, ev.To)
	}
	if math.IsNaN(ev.Weight) || ev.Weight < 0 || ev.Weight > 1 {
		return fmt.Errorf("stream: weight %v outside [0, 1] for %d→%d", ev.Weight, ev.From, ev.To)
	}
	return nil
}
