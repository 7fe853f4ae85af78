// Package repro is a from-scratch Go reproduction of "Personalized
// Influential Topic Search via Social Network Summarization" (Li, Liu, Yu,
// Chen, Sellis, Culpepper — ICDE 2017).
//
// The library implements the paper's full pipeline — the topic-aware
// social summarizations RCL-A (Section 3) and LRW-A (Section 4), the
// L-length random-walk index (Algorithm 6), the personalized influence
// propagation index (Section 5.1), the dynamic top-k PIT-Search
// (Algorithms 10–11) and the three evaluation baselines (Section 6.1) —
// plus dataset generators, an experiment harness regenerating Figures
// 5–16, three CLI tools and four runnable examples.
//
// Typical usage — one request type, one entry point (internal/core):
//
//	eng, _ := core.New(g, space, core.Options{})
//	_ = eng.BuildIndexes(ctx)
//	ans, _ := eng.Run(ctx, core.Query{Text: "phone", User: user, K: 10})
//
// or run:
//
//	go run ./examples/quickstart
//	go run ./cmd/pitbench -exp fig5
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for measured
// results next to the paper's.
package repro
