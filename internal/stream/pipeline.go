package stream

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
)

// Pipeline owns the deployment's current generation — one engine per
// shard, all over the same graph — and the one pending event batch. One
// background goroutine (Start) applies batches; Update is safe for
// concurrent use. Flushes are serialized: there is never more than one
// batch being rebuilt, so a burst of events coalesces into the next
// batch instead of queueing rebuilds.
type Pipeline struct {
	cfg Config
	cur atomic.Pointer[core.Generation]

	mu       sync.Mutex // guards pending, nodes, newNodes, oldest
	pending  []Event
	nodes    int       // events may name nodes below this: published plus accepted growth
	newNodes int       // growth not yet taken by a flush
	oldest   time.Time // earliest At among pending events

	kick chan struct{} // buffered(1): wakes the run loop on batch-size

	life context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	applyMu sync.Mutex // serializes Flush
	met     *pipeMetrics
}

// NewSet wires one pipeline over a deployment's shard engines (N ≥ 1,
// all over one graph and topic space; a single engine is a 1-shard
// set). It enables the engines' drain gates, so it must be called before
// they serve traffic. Start begins background flushing; without Start,
// batches apply only via explicit Flush calls.
func NewSet(engines []*core.Engine, cfg Config) (*Pipeline, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("stream: need at least one engine")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	for i, eng := range engines {
		if eng == nil {
			return nil, fmt.Errorf("stream: nil engine (shard %d)", i)
		}
		eng.EnableDrainGate()
	}
	p := &Pipeline{cfg: cfg, nodes: engines[0].Graph().NumNodes(), kick: make(chan struct{}, 1)}
	p.cur.Store(&core.Generation{Engines: engines})
	if cfg.Metrics != nil {
		p.met = newPipeMetrics(cfg.Metrics)
	}
	p.life, p.stop = context.WithCancel(context.Background())
	return p, nil
}

// New is NewSet over one engine. It stays only because frozen
// benchmark/trace.go compiles against it; everything else calls NewSet.
func New(eng *core.Engine, cfg Config) (*Pipeline, error) {
	return NewSet([]*core.Engine{eng}, cfg)
}

// Current returns the generation serving now — a shard.Router's
// generation source. A reader that holds it and is refused
// (core.ErrNotReady) raced a swap: the next Current answers.
func (p *Pipeline) Current() *core.Generation { return p.cur.Load() }

// Engine is the engine currently serving shard 0, which in a one-engine
// pipeline is the engine. Like New it stays only for frozen
// benchmark/trace.go.
func (p *Pipeline) Engine() *core.Engine { return p.Current().Engines[0] }

// Swaps reports how many batches have been applied so far: the ID of
// the generation serving now.
func (p *Pipeline) Swaps() uint64 { return p.Current().ID }

// PendingEvents reports the current pending batch size.
func (p *Pipeline) PendingEvents() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Update admits one update: newNodes fresh node IDs, appended after the
// current maximum, and events for the pending batch, whose zero
// observation times are stamped with the current clock. The events are
// validated against the node range the growth makes, so they may name
// the new IDs already. The growth pending for one batch may not exceed
// the published graph's node count, so a flush at most doubles the
// graph. It is all or nothing: a refused growth or event fails the whole
// call, and the pending batch, its growth and the node range are as
// before. Reaching BatchSize, or pending growth, wakes the background
// loop.
func (p *Pipeline) Update(newNodes int, events ...Event) error {
	if err := p.life.Err(); err != nil {
		return fmt.Errorf("stream: pipeline stopped: %w", err)
	}
	if newNodes < 0 {
		return fmt.Errorf("stream: %d new nodes: need a count >= 0", newNodes)
	}
	published := p.Current().Graph().NumNodes()
	now := p.cfg.Clock()

	p.mu.Lock()
	if newNodes > published-p.newNodes {
		pending := p.newNodes
		p.mu.Unlock()
		return fmt.Errorf("stream: %d new nodes beside %d pending would more than double the graph's %d nodes", newNodes, pending, published)
	}
	for _, ev := range events {
		if err := validateEvent(ev, p.nodes+newNodes); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	p.nodes += newNodes
	p.newNodes += newNodes
	if newNodes > 0 && p.oldest.IsZero() {
		p.oldest = now
	}
	for _, ev := range events {
		if ev.At.IsZero() {
			ev.At = now
		}
		if p.oldest.IsZero() || ev.At.Before(p.oldest) {
			p.oldest = ev.At
		}
		p.pending = append(p.pending, ev)
	}
	n := len(p.pending)
	p.mu.Unlock()

	if p.met != nil {
		p.met.submitted.Add(uint64(len(events)))
		p.met.pending.Set(int64(n))
	}
	// Wake on growth and on a full batch (immediate flush), and on the
	// first events after an idle stretch — the loop sleeps unarmed when
	// nothing is pending and must wake to arm the MaxAge timer.
	if newNodes > 0 || n >= p.cfg.BatchSize || n == len(events) {
		p.wake()
	}
	return nil
}

// Submit is Update with no growth. It stays because frozen
// benchmark/trace.go calls it.
func (p *Pipeline) Submit(events ...Event) error { return p.Update(0, events...) }

// GrowNodes is Update with no events, for a caller that grows the graph
// on its own.
func (p *Pipeline) GrowNodes(n int) error { return p.Update(n) }

// wake nudges the run loop without blocking; a pending nudge coalesces.
func (p *Pipeline) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// Start launches the background flush loop. Call at most once; Stop
// terminates it.
func (p *Pipeline) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.run()
	}()
}

// Stop terminates the background loop and waits for it. Events still
// pending are dropped (visible in pit_stream_pending_events); callers
// that need them applied call Flush before Stop. Stop does not close
// the current engines — the owner retires or closes them after the
// serving layer drains.
func (p *Pipeline) Stop() {
	p.stop()
	p.wg.Wait()
}

// run flushes on batch-size wakeups and age deadlines until the
// lifecycle ends.
func (p *Pipeline) run() {
	timer := time.NewTimer(p.cfg.MaxAge)
	defer timer.Stop()
	for {
		p.mu.Lock()
		size := len(p.pending)
		grow := p.newNodes
		oldest := p.oldest
		p.mu.Unlock()

		if size >= p.cfg.BatchSize {
			p.flushLogged()
			continue
		}
		var wait time.Duration = -1
		if size > 0 || grow > 0 {
			wait = p.cfg.MaxAge - p.cfg.Clock().Sub(oldest)
			if wait <= 0 {
				p.flushLogged()
				continue
			}
		}
		if wait < 0 {
			// Nothing pending: sleep until kicked.
			select {
			case <-p.life.Done():
				return
			case <-p.kick:
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-p.life.Done():
			return
		case <-p.kick:
		case <-timer.C:
		}
	}
}

// flushLogged is the run loop's Flush: errors are counted and logged,
// not returned — the loop keeps serving subsequent batches.
func (p *Pipeline) flushLogged() {
	if err := p.Flush(p.life); err != nil && !errors.Is(err, context.Canceled) {
		p.cfg.Logger.Printf("stream: batch apply failed: %v", err)
	}
}

// Flush applies the pending batch to the deployment now. It decays the
// queued weights against one clock reading (an upsert that decayed to
// exactly 0 is dropped, not applied as the delete a 0 would mean), applies the batch to the
// graph once, computes the affected set once, rebuilds every shard's
// engine side by side over that one graph (each carrying its own
// shard's unaffected summaries) and publishes all of them or none:
// if any rebuild fails, every fresh engine is closed, the failure is
// counted once and the old generation keeps serving on every shard.
// Success publishes generation ID+1 with one pointer store and then
// retires the old generation as a whole.
// A flush with nothing pending is a no-op. ctx bounds the rebuilds; on
// error the pending events are dropped (they were consumed by the
// failed attempt). Concurrent flushes serialize.
func (p *Pipeline) Flush(ctx context.Context) error {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()

	p.mu.Lock()
	events := p.pending
	grow := p.newNodes
	oldest := p.oldest
	p.pending = nil
	p.newNodes = 0
	p.oldest = time.Time{}
	p.mu.Unlock()
	if p.met != nil {
		p.met.pending.Set(0)
	}
	if len(events) == 0 && grow == 0 {
		return nil
	}

	now := p.cfg.Clock()
	batch := dynamic.Batch{NewNodes: grow, Updates: make([]dynamic.EdgeUpdate, 0, len(events))}
	for _, ev := range events {
		w := ev.Weight
		if w > 0 {
			w = DecayedWeight(w, now.Sub(ev.At), p.cfg.DecayHalfLife)
			if w == 0 {
				// Faded to nothing: the observation carries no influence
				// any more. Forwarded, the 0 would read as a delete.
				continue
			}
		}
		batch.Updates = append(batch.Updates, dynamic.EdgeUpdate{From: ev.From, To: ev.To, Weight: w})
	}

	old := p.Current()
	fresh, stats, err := p.rebuild(ctx, old.Engines, batch)
	if err != nil {
		p.mu.Lock()
		p.nodes = old.Graph().NumNodes() + p.newNodes // the batch's growth is lost with it
		p.mu.Unlock()
		if p.met != nil {
			p.met.failures.Inc()
		}
		return fmt.Errorf("stream: refresh (batch of %d): %w", len(events), err)
	}
	for i, eng := range fresh {
		if p.cfg.PrepareEngine != nil {
			p.cfg.PrepareEngine(i, eng)
		}
		eng.EnableDrainGate()
	}
	// Publish: the one Store is the happens-before edge that makes every
	// fresh engine's gated flag (and everything the rebuild wrote)
	// visible to readers loading the generation.
	gen := &core.Generation{ID: old.ID + 1, Engines: fresh}
	p.cur.Store(gen)
	lag := p.cfg.Clock().Sub(oldest)

	if p.met != nil {
		p.met.applied.Add(uint64(len(batch.Updates)))
		p.met.batches.Inc()
		p.met.affected.Add(uint64(len(stats.Affected)))
		for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
			p.met.carried[m].Add(uint64(stats.Carried[m]))
		}
		p.met.swaps.Inc()
		p.met.lag.Observe(lag.Seconds())
	}
	if p.cfg.OnApply != nil {
		p.cfg.OnApply(ctx, ApplyResult{Seq: gen.ID, Batch: batch, Stats: stats, Lag: lag})
	}
	// Retire last: in-flight queries holding the old generation drain at
	// full fidelity while the fresh one already serves new queries.
	old.Retire()
	return nil
}

// rebuild is the fallible half of Flush: one dynamic.Apply and one
// affected set for the deployment, then one dynamic.Rebuild per shard,
// concurrently. It returns every shard's fresh engine, or an error with
// all of them closed. Stats.Carried sums over the shards; the patch sizes
// are shard 0's, every shard having patched equal indexes over the same
// two graphs.
func (p *Pipeline) rebuild(ctx context.Context, old []*core.Engine, batch dynamic.Batch) ([]*core.Engine, dynamic.RefreshStats, error) {
	var stats dynamic.RefreshStats
	base := old[0]
	space := base.Space()
	g, err := dynamic.Apply(base.Graph(), batch)
	if err != nil {
		return nil, stats, err
	}
	// Radius L: the horizon beyond which a carried summary is exact.
	stats.Affected = dynamic.Affected(base.Graph(), g, space, space, batch, base.Options().WalkL)

	// Every shard still patches its own copy of the walk and Γ indexes
	// over the shared graph: frozen benchmark/loadgen.go calls a batch
	// visible only once pit_index_build_duration_seconds_count has risen
	// by the shard count. When that predicate moves (ROADMAP 2b), this
	// loop becomes "Rebuild shard 0, ShareIndexes into the rest".
	fresh := make([]*core.Engine, len(old))
	shard := make([]dynamic.RefreshStats, len(old))
	errs := make([]error, len(old))
	var wg sync.WaitGroup
	for i := range old {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fresh[i], shard[i], errs[i] = dynamic.Rebuild(ctx, old[i], g, space, stats.Affected)
		}(i)
	}
	wg.Wait()
	stats.Carried = map[core.Method]int{}
	stats.Resampled, stats.PatchedRows = shard[0].Resampled, shard[0].PatchedRows
	for i, err := range errs {
		if err != nil {
			for _, eng := range fresh {
				if eng != nil {
					eng.Close()
				}
			}
			return nil, stats, fmt.Errorf("shard %d: %w", i, err)
		}
		for m, n := range shard[i].Carried {
			stats.Carried[m] += n
		}
	}
	return fresh, stats, nil
}
