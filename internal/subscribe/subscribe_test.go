package subscribe

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/topics"
)

func testEngine(t testing.TB, seed int64) *core.Engine {
	t.Helper()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 200, MinOutDegree: 2, MaxOutDegree: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 2, TopicsPerTag: 5, MeanTopicNodes: 10, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(g, space, core.Options{WalkL: 3, WalkR: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func TestSubscribeValidation(t *testing.T) {
	eng := testEngine(t, 3)
	r := NewRegistry(nil)
	ctx := context.Background()
	cases := []struct {
		name string
		q    core.Query
	}{
		{"zero k", core.Query{Method: core.MethodLRW, Text: "tag000", User: 1, K: 0}},
		{"negative k", core.Query{Method: core.MethodLRW, Text: "tag000", User: 1, K: -1}},
		{"unknown user", core.Query{Method: core.MethodLRW, Text: "tag000", User: 9999, K: 3}},
		{"unrelated query", core.Query{Method: core.MethodLRW, Text: "nosuchtag", User: 1, K: 3}},
	}
	for _, c := range cases {
		if _, err := r.Subscribe(ctx, eng, c.q); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("registry holds %d subs after rejected subscribes", r.Len())
	}
}

func TestSubscribeInitialPushAndUnsubscribe(t *testing.T) {
	eng := testEngine(t, 5)
	r := NewRegistry(nil)
	sub, err := r.Subscribe(context.Background(), eng, core.Query{
		Method: core.MethodLRW, Text: "tag000", User: 2, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	select {
	case p := <-sub.C():
		if p.Seq != 0 {
			t.Errorf("initial push Seq = %d, want 0", p.Seq)
		}
		if len(p.Results) == 0 || len(p.Results) > 3 {
			t.Errorf("initial push carries %d results, want 1..3", len(p.Results))
		}
	default:
		t.Fatal("no initial push queued at subscribe time")
	}
	r.Unsubscribe(sub.ID())
	if r.Len() != 0 {
		t.Fatalf("Len = %d after unsubscribe, want 0", r.Len())
	}
	r.Unsubscribe(sub.ID()) // unknown id is a no-op
}

// Dispatch touches only subscriptions whose related-topic set intersects
// the affected set; an untouched subscription keeps its channel quiet
// even when its last known ranking is stale.
func TestDispatchFiltersByAffected(t *testing.T) {
	eng := testEngine(t, 7)
	r := NewRegistry(nil)
	ctx := context.Background()
	subA, err := r.Subscribe(ctx, eng, core.Query{Method: core.MethodLRW, Text: "tag000", User: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := r.Subscribe(ctx, eng, core.Query{Method: core.MethodLRW, Text: "tag001", User: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	<-subA.C() // drain initial pushes
	<-subB.C()
	// Erase both remembered rankings so any re-evaluation would push.
	subA.mu.Lock()
	subA.last = nil
	subA.mu.Unlock()
	subB.mu.Lock()
	subB.last = nil
	subB.mu.Unlock()

	r.Dispatch(ctx, eng, eng.Space().Related("tag000"), 1)

	select {
	case p := <-subA.C():
		if p.Seq != 1 {
			t.Errorf("push Seq = %d, want 1", p.Seq)
		}
	default:
		t.Error("intersecting subscription got no push")
	}
	select {
	case p := <-subB.C():
		t.Errorf("disjoint subscription got push %+v", p)
	default:
	}
}

// A re-evaluation that lands on the same ranking pushes nothing: a batch
// can move scores without moving the ranking, and the ordered topic IDs
// are the signal.
func TestDispatchNoPushOnUnchangedRanking(t *testing.T) {
	eng := testEngine(t, 9)
	r := NewRegistry(nil)
	ctx := context.Background()
	sub, err := r.Subscribe(ctx, eng, core.Query{Method: core.MethodLRW, Text: "tag000", User: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	<-sub.C()
	// Same engine, so the deterministic re-evaluation reproduces the
	// remembered ranking exactly.
	r.Dispatch(ctx, eng, eng.Space().Related("tag000"), 1)
	select {
	case p := <-sub.C():
		t.Errorf("unchanged ranking pushed %+v", p)
	default:
	}
}

func TestDeliverLatestWins(t *testing.T) {
	s := &Subscription{ch: make(chan Push, 1)}
	if displaced := s.deliver(Push{Seq: 1}); displaced {
		t.Error("first deliver into an empty slot reported displacement")
	}
	if displaced := s.deliver(Push{Seq: 2}); !displaced {
		t.Error("second deliver did not report displacing the first")
	}
	if displaced := s.deliver(Push{Seq: 3}); !displaced {
		t.Error("third deliver did not report displacing the second")
	}
	select {
	case p := <-s.ch:
		if p.Seq != 3 {
			t.Errorf("slot holds Seq %d, want the latest (3)", p.Seq)
		}
	default:
		t.Fatal("slot empty after deliveries")
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b []topics.TopicID
		want bool
	}{
		{nil, nil, false},
		{[]topics.TopicID{1, 2}, nil, false},
		{[]topics.TopicID{1, 3, 5}, []topics.TopicID{2, 4, 6}, false},
		{[]topics.TopicID{1, 3, 5}, []topics.TopicID{5, 9}, true},
		{[]topics.TopicID{7}, []topics.TopicID{1, 2, 7}, true},
		{[]topics.TopicID{1, 2, 3}, []topics.TopicID{3}, true},
	}
	for _, c := range cases {
		if got := intersects(c.a, c.b); got != c.want {
			t.Errorf("intersects(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := intersects(c.b, c.a); got != c.want {
			t.Errorf("intersects(%v, %v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}
