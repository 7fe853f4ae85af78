package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// request is one /search call: the paper's tag query (one tag → every
// topic of that tag) issued by one user.
type request struct {
	Tag  int   `json:"tag"`
	User int32 `json:"user"`
}

func (r request) query() string { return fmt.Sprintf("tag%03d", r.Tag) }

// edge is one /updates event; Weight 0 deletes.
type edge struct {
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	Weight float64 `json:"weight"`
}

// shape sizes a script. It is a function of the workload and -seconds
// only, never of -seed or of measured speed, so two runs of a workload
// do the same amount of work.
type shape struct {
	users, tags int // dataset dimensions
	warm        int // requests of the unmeasured pass
	rounds      int // steady rounds before the refreshes
	perRound    int
	refreshes   int // alternating upsert / delete batches; even
	overlap     int // reads issued beside each in-flight refresh
	warmTags    int // tags kept warm through the refreshes (refilled after each swap)
	perCycle    int // requests of the round that follows each refresh
	panel       int // requests of the closing pass (equality + precision)
	batch       int // edges per update batch
}

// script is everything a run sends.
type script struct {
	Warm   []request   `json:"warm"`
	Rounds [][]request `json:"rounds"`
	// Per refresh: the reads beside it, the first search of each warm tag
	// after the swap, and the round that follows. All three ask only for
	// the first warmTags tags, so no read after a swap pays for a tag the
	// refill did not rebuild.
	Overlap [][]request `json:"overlap"`
	Refill  [][]request `json:"refill"`
	Cycle   [][]request `json:"cycle"`
	Upsert  []edge      `json:"upsert"` // edges the graph does not have
	Delete  []edge      `json:"delete"` // the same edges, weight 0
	// Panel is the closing pass. It is the one input that does not come
	// from -seed: precision@k over a few dozen users moves by ±10 % with
	// the users drawn, so it is scored on a fixed evaluation panel, where
	// it repeats exactly and any lost hit shows.
	Panel []request `json:"panel"`
}

const panelSeed = 20170419

// genScript draws the script from a private source seeded with seed.
// hasEdge reports whether the dataset already has from→to: an upsert
// batch adds only new edges, so its delete batch restores the graph
// exactly and every refresh is identical work.
func genScript(seed int64, sh shape, hasEdge func(from, to int32) bool) script {
	rng := rand.New(rand.NewSource(seed))
	// Request i asks for tag i mod tags, so every stretch of a pass
	// covers the tags evenly; the user is uniform.
	pass := func(rng *rand.Rand, n, tags int) []request {
		out := make([]request, n)
		for i := range out {
			out[i] = request{Tag: i % tags, User: rng.Int31n(int32(sh.users))}
		}
		return out
	}
	passes := func(count, n, tags int) [][]request {
		out := make([][]request, count)
		for i := range out {
			out[i] = pass(rng, n, tags)
		}
		return out
	}

	s := script{
		Warm:    pass(rng, sh.warm, sh.tags),
		Rounds:  passes(sh.rounds, sh.perRound, sh.tags),
		Overlap: passes(sh.refreshes, sh.overlap, sh.warmTags),
		Refill:  passes(sh.refreshes, sh.warmTags, sh.warmTags),
		Cycle:   passes(sh.refreshes, sh.perCycle, sh.warmTags),
		Panel:   pass(rand.New(rand.NewSource(panelSeed)), sh.panel, sh.warmTags),
	}
	seen := map[[2]int32]bool{}
	for len(s.Upsert) < sh.batch {
		from, to := rng.Int31n(int32(sh.users)), rng.Int31n(int32(sh.users))
		if from == to || seen[[2]int32{from, to}] || hasEdge(from, to) {
			continue
		}
		seen[[2]int32{from, to}] = true
		s.Upsert = append(s.Upsert, edge{From: from, To: to, Weight: 0.1 + 0.8*rng.Float64()})
		s.Delete = append(s.Delete, edge{From: from, To: to})
	}
	return s
}

// bytes is the canonical encoding the determinism test compares.
func (s script) bytes() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain ints, floats and slices: cannot fail
	}
	return b
}
