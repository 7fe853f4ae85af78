package core

import (
	"context"
	"testing"
)

func TestSearchTraceMatchesSearchTopics(t *testing.T) {
	eng := builtEngine(t)
	related := eng.Space().Related("tag002")
	if len(related) == 0 {
		t.Fatal("no related topics")
	}
	res, err := eng.SearchTopics(context.Background(), MethodLRW, related, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.SearchTrace(context.Background(), MethodLRW, related, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Results) != len(res) {
		t.Fatalf("trace results %d != %d", len(tr.Results), len(res))
	}
	for i := range res {
		if res[i] != tr.Results[i] {
			t.Errorf("result %d: %+v vs %+v", i, res[i], tr.Results[i])
		}
	}
	if len(tr.Topics) != len(related) {
		t.Errorf("trace covers %d topics, want %d", len(tr.Topics), len(related))
	}
	for _, tt := range tr.Topics {
		if tt.ConsumedReps > tt.TotalReps {
			t.Errorf("topic %d consumed %d of %d reps", tt.Topic, tt.ConsumedReps, tt.TotalReps)
		}
		if tt.RemainingWeight < -1e-12 || tt.RemainingWeight > 1+1e-9 {
			t.Errorf("topic %d remaining weight %v", tt.Topic, tt.RemainingWeight)
		}
	}
}

func TestSearchTraceBeforeBuildFails(t *testing.T) {
	g, space := smallWorld()
	eng, err := New(g, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchTrace(context.Background(), MethodLRW, nil, 1, 1); err == nil {
		t.Error("trace before BuildIndexes accepted")
	}
}

func TestRunDiversified(t *testing.T) {
	eng := builtEngine(t)
	ctx := context.Background()
	query := Query{Text: "tag001", User: 7, K: 2, Fidelity: FidelityFull}
	plain, err := eng.Run(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	query.Lambda = 0.9
	div, err := eng.Run(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(div.Results) == 0 || len(div.Results) > 2 {
		t.Fatalf("diverse results = %d", len(div.Results))
	}
	if div.Results[0] != plain.Results[0] {
		t.Errorf("diversification changed the top result: %+v vs %+v", div.Results[0], plain.Results[0])
	}
	query.Text = "no-such-tag"
	if ans, err := eng.Run(ctx, query); err != nil || ans.Results != nil {
		t.Errorf("unknown query: %v, %v", ans.Results, err)
	}
}
