package lrw

// Influence migration (Algorithm 8): the local influence weight 1/|V_t| of
// every topic node is migrated onto nearby representative nodes through
// forward and backward absorbing random walks over the pre-sampled paths
// of Algorithm 6. The first representative encountered on a path from a
// topic node (and, symmetrically, the first topic node on a path from a
// representative) is an absorbing state; the association strength is
// 1/(D+1) for hop distance D along the path, maximized over paths, then
// row-normalized into a closeness distribution M′ whose column sums give
// each representative's aggregated weight.

import (
	"context"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

// MigrateInfluence is Algorithm 8. vt is the topic node set V_t; reps is
// the representative set V_{r,t} selected by RepNodes. It returns the
// weighted representative set as a Summary; representatives that absorb no
// topic node keep weight 0 and are retained (the search layer treats their
// remaining mass through the W_r bound).
func MigrateInfluence(t topics.TopicID, walks *randwalk.Index, vt, reps []graph.NodeID) summary.Summary {
	sum, _ := migrateInfluenceCtx(context.Background(), t, walks, vt, reps)
	return sum
}

// migrateInfluenceCtx is MigrateInfluence with cooperative cancellation:
// ctx is checked between absorbing-walk rows (one row per topic node /
// representative, R walks each).
func migrateInfluenceCtx(ctx context.Context, t topics.TopicID, walks *randwalk.Index, vt, reps []graph.NodeID) (summary.Summary, error) {
	sc := getScratch()
	defer putScratch(sc)
	return migrateInto(ctx, t, walks, vt, reps, sc)
}

// migrateInto is the migration kernel on pooled scratch. The absorbing-
// state lookups (is this walk node a representative / topic node?) run
// against epoch-stamped dense-position arrays instead of maps: one array
// read per walk step, no hashing.
func migrateInto(ctx context.Context, t topics.TopicID, walks *randwalk.Index, vt, reps []graph.NodeID, sc *scratch) (summary.Summary, error) {
	if len(vt) == 0 || len(reps) == 0 {
		return summary.New(t, nil), nil
	}

	// Dense positions for matrix addressing.
	sc.ensureNodes(walks.NumNodes())
	topicEpoch := sc.nextTopicEpoch()
	for i, v := range vt {
		sc.topicStamp[v] = topicEpoch
		sc.topicPos[v] = int32(i)
	}
	repEpoch := sc.nextRepEpoch()
	for j, r := range reps {
		sc.repStamp[r] = repEpoch
		sc.repPos[r] = int32(j)
	}

	// M(i,j) = max over sampled paths of 1/(D+1), D the hop distance of
	// the first absorbing state on the path.
	m, weights := sc.ensureMatrix(len(vt)*len(reps), len(reps))

	// Forward absorption: walks from each topic node, absorbed by the
	// first representative on the path (Algorithm 8 lines 3–7).
	for i, v := range vt {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return summary.Summary{}, err
			}
		}
		for s := 0; s < walks.R; s++ {
			for d, node := range walks.Walk(s, v) {
				if sc.repStamp[node] == repEpoch {
					j := int(sc.repPos[node])
					closeness := 1.0 / float64(d+2) // D = d+1 hops, entry 1/(D+1)
					if cell := &m[i*len(reps)+j]; *cell < closeness {
						*cell = closeness
					}
					break // absorbing state: the walk cannot leave
				}
			}
		}
	}

	// Backward absorption: walks from each representative, absorbed by
	// the first topic node on the path (lines 8–12).
	for j, r := range reps {
		if j%256 == 0 {
			if err := ctx.Err(); err != nil {
				return summary.Summary{}, err
			}
		}
		for s := 0; s < walks.R; s++ {
			for d, node := range walks.Walk(s, r) {
				if sc.topicStamp[node] == topicEpoch {
					i := int(sc.topicPos[node])
					closeness := 1.0 / float64(d+2)
					if cell := &m[i*len(reps)+j]; *cell < closeness {
						*cell = closeness
					}
					break
				}
			}
		}
	}

	// A representative that IS a topic node absorbs that topic node at
	// distance zero: the paths above never include their own start, so
	// make the self-association explicit (D = 0 → closeness 1).
	for j, r := range reps {
		if sc.topicStamp[r] == topicEpoch {
			i := int(sc.topicPos[r])
			if cell := &m[i*len(reps)+j]; *cell < 1 {
				*cell = 1
			}
		}
	}

	// Row-normalize into M′ (lines 13–18), then aggregate column sums
	// scaled by the uniform local weight 1/|V_t| (lines 19–22).
	invVt := 1.0 / float64(len(vt))
	for i := range vt {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return summary.Summary{}, err
			}
		}
		row := m[i*len(reps) : (i+1)*len(reps)]
		if prob.IsZero(prob.NormalizeInPlace(row)) {
			continue // topic node absorbed by nobody: its mass stays unmigrated
		}
		for j := range reps {
			weights[j] += float64(row[j] * invVt)
		}
	}

	out := make([]summary.WeightedNode, len(reps))
	for j, r := range reps {
		out[j] = summary.WeightedNode{Node: r, Weight: weights[j]}
	}
	return summary.New(t, out), nil
}
