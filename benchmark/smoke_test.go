package main

import (
	"context"
	"testing"
	"time"
)

// TestSmoke builds and boots the real pitserve at a quarter of data_2k
// and checks that every metric BENCHMARK.json names is emitted with its
// unit and that no operation fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server; skipped under -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := runSmoke(ctx); err != nil {
		t.Fatal(err)
	}
}
