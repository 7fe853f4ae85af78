// Package shard partitions the PIT-Search serving state by topic and
// serves queries through a stateless scatter-gather router.
//
// The split follows the paper's structure: summarization is per-topic
// (Algorithms 5/9), so the expensive serving state — the materialized
// summary corpus and the summarizers that build it — decomposes
// cleanly along topic boundaries. Each shard is a full core.Engine
// whose corpus holds only the topics a stable hash assigns it; the
// immutable indexes underneath are either built once and shared
// in-process (core.Engine.ShareIndexes) or mapped by every shard from
// the dataset's one artifact directory, which is the same whatever the
// shard count: the partition is applied when it is loaded
// (LoadArtifacts), never stored.
//
// The Router answers exactly what one engine over every topic would: it
// gathers the summaries of each owning shard — built or cached by that
// shard's own corpus and summarizers — into one search session, which
// search.Drive runs like any single engine's. The golden and the
// differential test pin byte-identity with the single-engine ranking at
// N ∈ {1, 2, 7, 31}.
package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topics"
)

// Partitioner is a fixed topic→shard assignment over a topic space.
type Partitioner struct {
	n     int
	owned [][]topics.TopicID // per shard, ascending topic IDs
}

// NewPartitioner builds the assignment of every topic in space across
// n shards. Shards left topic-empty by the hash are legal — the router
// simply never scatters to them.
func NewPartitioner(space *topics.Space, n int) (*Partitioner, error) {
	if space == nil {
		return nil, fmt.Errorf("shard: nil topic space")
	}
	if n <= 0 {
		return nil, fmt.Errorf("shard: need a positive shard count, got %d", n)
	}
	p := &Partitioner{n: n, owned: make([][]topics.TopicID, n)}
	for t := 0; t < space.NumTopics(); t++ {
		id := topics.TopicID(t)
		s := core.Assign(id, n)
		p.owned[s] = append(p.owned[s], id)
	}
	return p, nil
}

// Shards returns the shard count.
func (p *Partitioner) Shards() int { return p.n }

// Owns reports the owning shard of t.
func (p *Partitioner) Owns(t topics.TopicID) int { return core.Assign(t, p.n) }

// Owned returns shard i's topics, ascending. The slice is shared; do
// not mutate.
func (p *Partitioner) Owned(i int) []topics.TopicID { return p.owned[i] }
