package rcl

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randwalk"
	"repro/internal/topics"
)

// sigCommon counts the common bits of two equal-length signatures:
// |V_{u,L} ∩ V_{v,L} ∩ V′| as a word-packed AND + popcount.
func sigCommon(a, b []uint64) int {
	c := 0
	for k := range a {
		c += bits.OnesCount64(a[k] & b[k])
	}
	return c
}

// TestGroupingMatchesAllPairs: the pair pass, which decides only the
// pairs that share a sampled node or sit in a count bucket deciding at
// c = 0, groups the same pairs in the same order as deciding every pair
// i < j does, and leaves the topic's RNG at the same point, so every
// later draw is the same too. data_2k's dense signatures make Rules 1
// and 3 fire on pairs that share a node, which data_350k's defaults
// almost never do; the test asserts that they fired.
func TestGroupingMatchesAllPairs(t *testing.T) {
	ctx := context.Background()
	p, err := dataset.PresetByName("data_2k")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	walks, err := randwalk.Build(ctx, ds.Graph, randwalk.Options{L: 6, R: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// fired counts the labels of pairs sharing a sampled node, over
	// every rate; zeroDraws the Rule 3 draws of pairs sharing none.
	var fired [labelRule3 + 1]int
	zeroDraws := 0
	for _, rate := range []float64{0.05, 0.3, 1.0} {
		t.Run(fmt.Sprintf("SampleRate=%v", rate), func(t *testing.T) {
			s, err := New(ds.Graph, ds.Space, walks, Options{SampleRate: rate, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sc := s.arena()
			defer s.release(sc)
			groupedPairs := 0
			// Every tenth topic: 120 topics across all ten tags.
			for ti := 0; ti < ds.Space.NumTopics(); ti += 10 {
				vt := ds.Space.Nodes(topics.TopicID(ti))
				seed := int64(1) ^ int64(ti)*0x9e3779b9
				pass, all := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				s.sampleNodes(rate, all, sc)
				size := s.sampleNodes(rate, pass, sc)
				words, err := s.buildSignatures(ctx, vt, size, sc)
				if err != nil {
					t.Fatal(err)
				}
				gr, err := buildGrouping(ctx, vt, size, words, pass, sc)
				if err != nil {
					t.Fatal(err)
				}
				var got, want [][2]int
				for i := range vt {
					for _, j := range gr.to[gr.off[i]:gr.off[i+1]] {
						got = append(got, [2]int{i, int(j)})
					}
				}
				rules := newPairRules(size)
				for i := range vt {
					sigI := sc.sigWords[i*words : (i+1)*words]
					for j := i + 1; j < len(vt); j++ {
						c := sigCommon(sigI, sc.sigWords[j*words:(j+1)*words])
						l, pr := rules.classify(c, sc.counts[i]+sc.counts[j])
						if c > 0 {
							fired[l]++
						} else if l == labelRule3 {
							zeroDraws++
						}
						if decide(l, pr, all) {
							want = append(want, [2]int{i, j})
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("topic %d: the pass grouped %d pairs, every pair %d; first pairs %v, want %v",
						ti, len(got), len(want), got[:min(len(got), 5)], want[:min(len(want), 5)])
				}
				if g, w := pass.Float64(), all.Float64(); g != w {
					t.Fatalf("topic %d: next draw after the pass %v, after every pair %v: the RNG streams diverged", ti, g, w)
				}
				groupedPairs += len(got)
			}
			t.Logf("grouped %d pairs", groupedPairs)
		})
	}
	t.Logf("pairs sharing a node: Rule 1 %d, Rule 2 %d, Rule 3 %d, unset %d; Rule 3 draws at c = 0: %d",
		fired[labelGrouped], fired[labelSplit], fired[labelRule3], fired[labelUnset], zeroDraws)
	if fired[labelGrouped] == 0 || fired[labelRule3] == 0 || zeroDraws == 0 {
		t.Fatalf("Rules 1 and 3 at c > 0 and Rule 3 at c = 0 must all fire: %d, %d, %d", fired[labelGrouped], fired[labelRule3], zeroDraws)
	}
}
