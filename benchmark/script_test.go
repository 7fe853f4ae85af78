package main

import (
	"bytes"
	"testing"
)

func testShape(w workload) shape { return w.shape(fullProfile(10), 12000, 10) }

func noEdges(int32, int32) bool { return false }

func TestScriptDeterministic(t *testing.T) {
	sh := testShape(workloads[0])
	a, b := genScript(7, sh, noEdges), genScript(7, sh, noEdges)
	if !bytes.Equal(a.bytes(), b.bytes()) {
		t.Fatal("same seed gave different scripts")
	}
	c := genScript(8, sh, noEdges)
	if bytes.Equal(a.bytes(), c.bytes()) {
		t.Fatal("different seeds gave the same script")
	}
	sameUsers := 0
	for i := range a.Rounds[0] {
		if a.Rounds[0][i].User == c.Rounds[0][i].User {
			sameUsers++
		}
	}
	if sameUsers > len(a.Rounds[0])/4 {
		t.Errorf("%d of %d users coincide between seeds", sameUsers, len(a.Rounds[0]))
	}
	if a.Upsert[0] == c.Upsert[0] {
		t.Error("different seeds gave the same update batch")
	}
}

func TestScriptShape(t *testing.T) {
	sh := testShape(workloads[3])
	s := genScript(3, sh, noEdges)
	if len(s.Rounds) != 0 || len(s.Panel) != 40 || len(s.Refill) != 8 || len(s.Cycle[7]) != 30 || len(s.Overlap[0]) != overlapReads {
		t.Fatalf("refresh_cycle script has %d rounds, %d panel requests, %d refreshes with %d overlap reads and cycles of %d; shape says %+v",
			len(s.Rounds), len(s.Panel), len(s.Refill), len(s.Overlap[0]), len(s.Cycle[7]), sh)
	}
	sh = testShape(workloads[0])
	s = genScript(3, sh, noEdges)
	if len(s.Rounds) != 9 || len(s.Rounds[8]) != sh.perRound || len(s.Refill) != 4 || len(s.Cycle[0]) != 0 {
		t.Fatalf("tag_lrw script has %d rounds of %d and %d refreshes; shape says %+v", len(s.Rounds), len(s.Rounds[8]), len(s.Refill), sh)
	}
	for i, q := range s.Rounds[0] {
		if q.Tag != i%10 || q.User < 0 || int(q.User) >= sh.users {
			t.Fatalf("round request %d = %+v: want tag i mod 10 and a user of the dataset", i, q)
		}
	}
	// After a swap only the warm tags have summaries again: every read
	// beside or after a refresh must stay on them.
	after := append(append([]request{}, s.Panel...), s.Overlap[1]...)
	after = append(after, s.Refill[1]...)
	for _, q := range after {
		if q.Tag >= warmTags {
			t.Fatalf("request %+v beside or after a refresh asks for a tag that is not kept warm", q)
		}
	}
	for tag, q := range s.Refill[0] {
		if q.Tag != tag {
			t.Fatalf("refill %v does not touch each warm tag once", s.Refill[0])
		}
	}
}

// TestPanelIgnoresSeed pins the one seed-independent input: precision is
// scored on a fixed panel so that it repeats exactly across seeds.
func TestPanelIgnoresSeed(t *testing.T) {
	sh := testShape(workloads[0])
	a, b := genScript(1, sh, noEdges), genScript(2, sh, noEdges)
	if !bytes.Equal(script{Panel: a.Panel}.bytes(), script{Panel: b.Panel}.bytes()) {
		t.Error("the evaluation panel changed with the seed")
	}
}

func TestDeleteBatchInvertsUpsert(t *testing.T) {
	existing := func(from, to int32) bool { return (from+to)%3 == 0 } // a third of all pairs "exist"
	s := genScript(11, testShape(workloads[3]), existing)
	if len(s.Upsert) != batchEdges || len(s.Delete) != batchEdges {
		t.Fatalf("batches have %d and %d edges, want %d", len(s.Upsert), len(s.Delete), batchEdges)
	}
	seen := map[[2]int32]bool{}
	for i, up := range s.Upsert {
		del := s.Delete[i]
		if del.From != up.From || del.To != up.To || del.Weight != 0 {
			t.Errorf("delete %d = %+v does not invert upsert %+v", i, del, up)
		}
		if up.Weight <= 0 || up.Weight > 1 || up.From == up.To {
			t.Errorf("upsert %d = %+v is not a valid new edge", i, up)
		}
		// Only a batch of edges the graph lacks is undone exactly by
		// deleting them; overwriting an existing edge would lose its weight.
		if existing(up.From, up.To) {
			t.Errorf("upsert %d = %+v overwrites an existing edge", i, up)
		}
		if seen[[2]int32{up.From, up.To}] {
			t.Errorf("upsert %d = %+v repeats an edge", i, up)
		}
		seen[[2]int32{up.From, up.To}] = true
	}
}

// TestShardedSharesScript pins the cross-workload comparison: the sharded
// workload replays tag_lrw's script byte for byte.
func TestShardedSharesScript(t *testing.T) {
	byName := map[string]script{}
	for _, w := range workloads {
		byName[w.name] = genScript(5, testShape(w), noEdges)
	}
	if !bytes.Equal(byName["tag_lrw"].bytes(), byName["tag_sharded"].bytes()) {
		t.Error("tag_sharded's script differs from tag_lrw's")
	}
}
