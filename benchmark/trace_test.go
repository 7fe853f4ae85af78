package main

import "testing"

func TestSelfTimes(t *testing.T) {
	// request 0–100
	//   related      5–10
	//   materialize 10–30
	//     build     12–20   (grandchild: counts against materialize only)
	//     build     18–28   (overlaps the first: 12–28 covered once)
	//   topk        30–90
	//   late        95–120  (runs past its parent: only 95–100 is covered)
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "related", Start: 5, End: 10},
		{ID: 3, Parent: 1, Name: "materialize", Start: 10, End: 30},
		{ID: 4, Parent: 3, Name: "build", Start: 12, End: 20},
		{ID: 5, Parent: 3, Name: "build", Start: 18, End: 28},
		{ID: 6, Parent: 1, Name: "topk", Start: 30, End: 90},
		{ID: 7, Parent: 1, Name: "late", Start: 95, End: 120},
	}
	want := map[int]int64{1: 100 - 5 - 20 - 60 - 5, 2: 5, 3: 20 - 16, 4: 8, 5: 10, 6: 60, 7: 25}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id-1].Name, got[id], w)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("request", 0, 7)
	if _, err := tr.do("stage", root, 7, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != 7 {
		t.Fatalf("spans = %+v: want a stage under the request, same request id", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child span %+v is not inside its parent %+v", tr.spans[1], tr.spans[0])
	}
	if len(tr.durations("stage")) != 1 {
		t.Error("durations did not find the stage span")
	}
}
