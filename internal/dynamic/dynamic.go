// Package dynamic handles evolving social networks. The paper refreshes
// its offline summarization "after a period of time when the social
// network and topics have changed" (§4.4) — a full rebuild. This package
// makes the refresh incremental, in the spirit of the dynamic influence
// maximization line of work the paper cites (ref [29]): its cost follows
// the change, not the graph.
//
//   - Apply produces a new immutable graph from an edge-update batch;
//   - AffectedTopics computes which topics' summaries the batch actually
//     touches (a topic is affected when a changed endpoint lies within a
//     hop radius of one of its nodes);
//   - Rebuild stands up the engine of the updated graph from the engine it
//     replaces: the walk index and Γ are patched — only the start nodes
//     whose walks can meet a node with a changed out-list are re-sampled,
//     only the Γ rows that contain a node with a changed in-list are
//     re-enumerated, everything else is copied — and the cached summaries
//     of every *unaffected* topic are carried over, so only the touched
//     fraction of the topic-to-representative index is recomputed;
//   - Refresh is the three in a row for one engine.
//
// The patched indexes are exact: bit for bit what a build over the updated
// graph returns (randwalk.Patch and propidx.Patch state why; the root
// package's TestRefreshEqualsRebuild holds every flush to it). A patch
// turns into a build when exactness would cost one anyway — the batch
// grew the node set, or the old engine's indexes were loaded from an
// artifact directory and carry no patch state; RefreshStats then reports
// every start node and every row.
//
// Carrying a summary over is an approximation: an unaffected topic's
// representative weights were computed on the old graph, but by
// construction no edge within `radius` hops of its nodes changed, so its
// local influence structure — which is all the summarization consumes —
// is intact up to the radius horizon (use radius ≥ L for exactness of the
// walk-based selection).
package dynamic

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/topics"
)

// EdgeUpdate is one change: Weight > 0 upserts the edge From→To, Weight = 0
// deletes it.
type EdgeUpdate struct {
	From, To graph.NodeID
	Weight   float64
}

// Batch is a set of edge updates plus optionally NewNodes fresh user IDs
// appended after the current maximum.
type Batch struct {
	Updates  []EdgeUpdate
	NewNodes int
}

// Apply returns a new graph with the batch applied. Updates referencing
// nodes outside the grown node range fail, the first such in slice order
// reported. Updates replay strictly in slice order, so duplicates of the
// same edge within one batch resolve last-write-wins: upsert→delete
// deletes, delete→upsert keeps the final weight, double-upsert keeps the
// second weight. Deleting an edge the graph does not have is a
// deterministic no-op, not an error — streams retry and reorder, so
// deletes are idempotent. A surviving upsert the graph cannot hold (a self
// loop, a weight outside (0, 1]) fails the batch; of several, the first in
// (From, To) order is reported. The new graph is a splice of the old one
// (graph.Splice): only the rows the batch touches are rebuilt.
func Apply(g *graph.Graph, batch Batch) (*graph.Graph, error) {
	if g == nil {
		return nil, fmt.Errorf("dynamic: nil graph")
	}
	if batch.NewNodes < 0 {
		return nil, fmt.Errorf("dynamic: negative NewNodes")
	}
	n := g.NumNodes() + batch.NewNodes
	edits := make([]graph.Edge, len(batch.Updates))
	for i, u := range batch.Updates {
		if int(u.From) >= n || int(u.To) >= n || u.From < 0 || u.To < 0 {
			return nil, fmt.Errorf("dynamic: update %d→%d outside grown graph (%d nodes)", u.From, u.To, n)
		}
		edits[i] = graph.Edge{From: u.From, To: u.To, Weight: u.Weight}
	}
	return g.Splice(n, edits)
}

// AffectedTopics returns the sorted topic IDs whose node sets come within
// `radius` undirected hops of any changed endpoint, expanding over the
// UNION of the pre-update and post-update adjacency. Deletion makes the
// union necessary by construction: a deleted edge's old neighborhood is
// invisible on the updated graph alone, so expanding only there would
// leave the invalidation correct solely because both endpoints of every
// changed edge seed the BFS — a theorem about the seed set, not a
// property of the expansion. Walking both graphs makes the blast region
// structurally independent of who seeds it.
//
// old may be nil (no pre-update graph available): expansion then runs on
// the updated graph only. radius 0 means: only topics containing a
// changed endpoint itself.
func AffectedTopics(old, updated *graph.Graph, space *topics.Space, batch Batch, radius int) []topics.TopicID {
	if updated == nil || space == nil {
		return nil
	}
	// The blast region is a dense mark over the node IDs of both graphs,
	// seeded with the changed endpoints (including new nodes: they have no
	// topics yet, but their neighbors' regions changed). A node's topics
	// are marked affected as it joins the region. The result is those
	// marks alone, so the expansion stops once every topic carries one.
	n := updated.NumNodes()
	if old != nil {
		n = max(n, old.NumNodes())
	}
	region := make([]bool, n)
	affected := make([]bool, space.NumTopics())
	unmarked := len(affected)
	var frontier, next []graph.NodeID
	// join adds v to the region, unless it is there, and to frontier.
	join := func(frontier []graph.NodeID, v graph.NodeID) []graph.NodeID {
		if region[v] {
			return frontier
		}
		region[v] = true
		for _, t := range space.NodeTopics(v) {
			if !affected[t] {
				affected[t] = true
				unmarked--
			}
		}
		return append(frontier, v)
	}
	for _, u := range batch.Updates {
		for _, v := range [2]graph.NodeID{u.From, u.To} {
			if updated.Valid(v) {
				frontier = join(frontier, v)
			}
		}
	}
	// Expand it by radius hops, ignoring direction (influence structure
	// changes propagate both ways) and ignoring which of the two graphs
	// supplies an edge.
	for hop := 0; hop < radius && len(frontier) > 0 && unmarked > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			if unmarked == 0 {
				break
			}
			for _, g := range [2]*graph.Graph{updated, old} {
				if g == nil || !g.Valid(v) {
					continue
				}
				out, _ := g.OutNeighbors(v)
				in, _ := g.InNeighbors(v)
				for _, nbrs := range [2][]graph.NodeID{out, in} {
					for _, w := range nbrs {
						next = join(next, w)
					}
				}
			}
		}
		frontier, next = next, frontier
	}

	var out []topics.TopicID
	for t, hit := range affected {
		if hit {
			out = append(out, topics.TopicID(t))
		}
	}
	return out
}

// RefreshStats reports what a Refresh invalidated and what it reused.
type RefreshStats struct {
	// Affected is the sorted set of topic IDs whose summaries the batch
	// invalidated (see Affected).
	Affected []topics.TopicID
	// Carried counts, per method, the unaffected summaries copied from
	// the old engine's cache into the new one.
	Carried map[core.Method]int
	// Resampled is the number of start nodes whose walks the index patch
	// sampled again and PatchedRows the number of Γ rows it enumerated
	// again; the rest of both indexes was copied. Either equals the node
	// count when that index had to be built instead (see Rebuild).
	Resampled, PatchedRows int
}

// Affected returns the sorted topic IDs a batch invalidates: the blast
// region of AffectedTopics within `radius` hops (expanded over both the
// old and the updated graph) plus every topic whose node set changed
// between oldSpace and space — a topic with new adopters or departures
// must be re-summarized even if no edge near it moved.
func Affected(old, updated *graph.Graph, oldSpace, space *topics.Space, batch Batch, radius int) []topics.TopicID {
	region := AffectedTopics(old, updated, space, batch, radius)
	out := region
	for ti := 0; ti < space.NumTopics(); ti++ {
		t := topics.TopicID(ti)
		if _, hit := slices.BinarySearch(region, t); hit {
			continue
		}
		// Brand-new topic, or one whose membership moved.
		if ti >= oldSpace.NumTopics() || !slices.Equal(oldSpace.Nodes(t), space.Nodes(t)) {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// Rebuild returns a ready engine with old's options over g and space — g
// being old's graph with a batch applied. Its walk index and Γ are what a
// build over g gives, bit for bit, but made by patching old's
// (core.PatchIndexes): walks are re-sampled for the start nodes that can
// reach a node whose out-neighbours changed, Γ rows re-enumerated where
// they contain a node whose in-edges changed, and the rest copied. An
// index is built from scratch instead when g has more nodes than old's
// graph or old's indexes came from an artifact directory. It then carries
// over old's cached summaries of every topic not in affected (sorted, as
// Affected returns it). The stats echo affected and report the carried
// count per method and the patch sizes. ctx bounds the index work: a
// canceled context aborts it, the half-made engine is closed and old,
// which is only read, stays usable.
func Rebuild(ctx context.Context, old *core.Engine, g *graph.Graph, space *topics.Space, affected []topics.TopicID) (*core.Engine, RefreshStats, error) {
	stats := RefreshStats{Affected: affected}
	eng, err := core.New(g, space, old.Options())
	if err != nil {
		return nil, stats, err
	}
	patch, err := eng.PatchIndexes(ctx, old)
	if err != nil {
		eng.Close()
		return nil, stats, err
	}
	stats.Resampled, stats.PatchedRows = patch.Walks.Resampled, patch.Prop.PatchedRows
	stats.Carried = map[core.Method]int{}
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		var keep []summary.Summary
		for ti := 0; ti < space.NumTopics(); ti++ {
			t := topics.TopicID(ti)
			if _, hit := slices.BinarySearch(affected, t); hit {
				continue
			}
			if s, ok := old.CachedSummary(m, t); ok {
				keep = append(keep, s)
			}
		}
		if len(keep) > 0 {
			if err := eng.PreloadSummaries(m, keep); err != nil {
				eng.Close()
				return nil, stats, err
			}
		}
		stats.Carried[m] = len(keep)
	}
	return eng, stats, nil
}

// Refresh is Apply → Affected → Rebuild over one engine: it returns a
// new engine with old's options over the updated graph and topic space,
// its indexes patched from old's (see Rebuild for what is patched, what
// is copied and when an index is built instead), holding the cached
// summaries of every topic the batch did not affect, plus stats on what
// was invalidated, carried and patched. The topic space may
// itself be updated (e.g. new adopters); it defaults to the old engine's
// space when nil. The streaming pipeline calls the three steps itself
// (it shares the first two across a shard set); this one-engine form
// stays for offline callers and because frozen benchmark/trace.go
// compiles against it.
func Refresh(ctx context.Context, old *core.Engine, space *topics.Space, batch Batch, radius int) (*core.Engine, RefreshStats, error) {
	if old == nil {
		return nil, RefreshStats{}, fmt.Errorf("dynamic: nil engine")
	}
	if space == nil {
		space = old.Space()
	}
	g, err := Apply(old.Graph(), batch)
	if err != nil {
		return nil, RefreshStats{}, err
	}
	return Rebuild(ctx, old, g, space, Affected(old.Graph(), g, old.Space(), space, batch, radius))
}
