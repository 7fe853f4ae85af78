package shard_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestQuerySurfaceFrozen guards the one-query-path design: Run is the
// only online entry point, and the Search*/NewSearchSession* names are
// frozen at the adapters the benchmark/ harness compiles against. A new
// feature belongs in core.Query (a field) or behind Run, never in a
// ninth entry point; when benchmark/ is ported to Run this list shrinks
// to nothing.
func TestQuerySurfaceFrozen(t *testing.T) {
	want := []string{
		"Engine.Search",
		"Engine.SearchPlanned",
		"Engine.SearchTopics",
		"Engine.SearchTrace",
		"Router.SearchTopics",
	}
	var got []string
	for _, typ := range []reflect.Type{reflect.TypeOf(&core.Engine{}), reflect.TypeOf(&shard.Router{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if strings.HasPrefix(name, "Search") || strings.HasPrefix(name, "NewSearchSession") {
				got = append(got, typ.Elem().Name()+"."+name)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("query entry points = %v, want exactly the benchmark-compat adapters %v", got, want)
	}
}
