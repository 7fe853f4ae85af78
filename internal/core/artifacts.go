package core

// Artifact persistence for the engine: WriteArtifacts writes the built
// offline indexes (and any materialized summary batches) to a
// directory, LoadArtifacts restores them — the deployment shape the
// paper's §6.6 amortization argument assumes, where the ~7-hour index
// build happens once per dataset snapshot and every serving process
// cold-starts from the artifact directory.
//
// The restored indexes are zero-copy views into read-only file mappings
// (internal/storage's one format), which gives a loaded engine a
// different Close from a built one: it drains in-flight queries through
// the query gate (gate.go) before releasing the mappings, and queries
// arriving after Close fail with ErrNotReady instead of reading
// unmapped memory. A built engine owns its indexes on the heap and
// keeps serving its cache after Close. Retire drains either.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Artifact file names inside an artifact directory.
const (
	// WalkArtifact holds the random-walk index (required).
	WalkArtifact = "walks.pit"
	// PropArtifact holds the propagation index (required).
	PropArtifact = "prop.pit"
)

// SummaryArtifact returns the file name of method m's materialized
// summary batch (optional in an artifact directory).
func SummaryArtifact(m Method) string {
	switch m {
	case MethodLRW:
		return "summaries_lrw.pit"
	case MethodRCL:
		return "summaries_rcl.pit"
	}
	return fmt.Sprintf("summaries_%d.pit", int(m))
}

// ArtifactsExist reports whether dir holds both required index
// artifacts — the cheap "can I cold-start from here?" probe the CLIs
// use to choose between loading and building.
func ArtifactsExist(dir string) bool {
	for _, name := range []string{WalkArtifact, PropArtifact} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			return false
		}
	}
	return true
}

// SaveArtifacts is WriteArtifacts for this one engine. There is one
// format; the parameter (anything but storage.FormatV2 is
// ErrInvalidArgument) stays ONLY because the frozen benchmark/ harness
// compiles against this signature. New code calls WriteArtifacts.
func (e *Engine) SaveArtifacts(dir string, format storage.Format) error {
	if format != storage.FormatV2 {
		return fmt.Errorf("%w: unknown artifact format %q", ErrInvalidArgument, format)
	}
	return WriteArtifacts(dir, e)
}

// WriteArtifacts persists one dataset's offline state into dir: the
// built indexes, written once from engines[0] (engines over one dataset
// hold equal ones), plus each method's summary batch — the union of the
// engines' caches, which a topic-partitioned serving set keeps disjoint,
// in topic order, when there is any. Such a set therefore writes byte
// for byte what one engine holding the whole corpus writes: the
// directory belongs to the dataset and records nothing about how many
// engines wrote it. Every file is written
// atomically (temp + rename), so a crash mid-save never corrupts an
// existing artifact directory. engines[0] must be ready.
func WriteArtifacts(dir string, engines ...*Engine) error {
	if len(engines) == 0 {
		return fmt.Errorf("%w: no engine to save", ErrInvalidArgument)
	}
	if err := engines[0].requireIndexes(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: artifact dir: %w", err)
	}
	if err := storage.SaveWalkIndex(filepath.Join(dir, WalkArtifact), engines[0].idx.walks); err != nil {
		return err
	}
	if err := storage.SavePropIndex(filepath.Join(dir, PropArtifact), engines[0].idx.prop); err != nil {
		return err
	}
	for _, m := range []Method{MethodLRW, MethodRCL} {
		var sums []summary.Summary
		for t := range engines[0].space.NumTopics() {
			for _, e := range engines {
				if s, ok := e.corpus.cached(cacheKey{m, topics.TopicID(t)}); ok {
					sums = append(sums, s)
					break
				}
			}
		}
		if len(sums) == 0 {
			continue
		}
		if err := storage.SaveSummaries(filepath.Join(dir, SummaryArtifact(m)), sums); err != nil {
			return err
		}
	}
	return nil
}

// LoadArtifacts is LoadOwnedArtifacts keeping every summary in dir: the
// engine serves the whole corpus.
func (e *Engine) LoadArtifacts(dir string) error {
	return e.LoadOwnedArtifacts(dir, nil)
}

// LoadOwnedArtifacts restores the offline indexes from dir, making the
// engine ready without running the index builds, and preloads the
// summaries in dir whose topic owns accepts (nil accepts all) — how each
// engine of a topic-partitioned set takes its slice of the one
// directory. The artifacts must match the engine's dataset: both
// indexes' node counts are checked against the graph and every summary
// in dir, owned or not, must name a topic of the space and validate, so
// artifacts from a different snapshot fail loudly here instead of
// answering garbage. A failed load installs nothing: the engine stays
// un-ready with an empty cache, still buildable.
//
// The indexes and summaries are zero-copy views into read-only mappings
// owned by the engine; Close drains in-flight queries and then releases
// the mappings, and later queries fail with ErrNotReady.
func (e *Engine) LoadOwnedArtifacts(dir string, owns func(topics.TopicID) bool) (retErr error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if e.ready.Load() {
		return fmt.Errorf("core: indexes already built; LoadArtifacts must run first")
	}
	loadStart := time.Now()
	var handles []*storage.Handle
	defer func() {
		if retErr != nil {
			for _, h := range handles {
				h.Close()
			}
		}
	}()
	walks, h, err := storage.OpenWalkIndex(filepath.Join(dir, WalkArtifact))
	if err != nil {
		return fmt.Errorf("core: walk artifact: %w", err)
	}
	handles = append(handles, h)
	if walks.NumNodes() != e.g.NumNodes() {
		return fmt.Errorf("core: walk artifact covers %d nodes, graph has %d — artifact from a different snapshot?",
			walks.NumNodes(), e.g.NumNodes())
	}
	prop, h, err := storage.OpenPropIndex(filepath.Join(dir, PropArtifact))
	if err != nil {
		return fmt.Errorf("core: propagation artifact: %w", err)
	}
	handles = append(handles, h)
	if prop.NumNodes() != e.g.NumNodes() {
		return fmt.Errorf("core: propagation artifact covers %d nodes, graph has %d — artifact from a different snapshot?",
			prop.NumNodes(), e.g.NumNodes())
	}
	searcher, err := search.New(prop, e.opts.Search)
	if err != nil {
		return fmt.Errorf("core: searcher: %w", err)
	}
	methods := []Method{MethodLRW, MethodRCL}
	batches := make([][]summary.Summary, len(methods))
	for i, m := range methods {
		sums, hs, err := storage.OpenSummaries(filepath.Join(dir, SummaryArtifact(m)))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("core: %s summaries artifact: %w", m, err)
		}
		handles = append(handles, hs)
		if err := e.validateSummaries(sums); err != nil {
			return fmt.Errorf("core: %s summaries artifact: %w", m, err)
		}
		if owns != nil {
			sums = slices.DeleteFunc(sums, func(s summary.Summary) bool { return !owns(s.Topic) })
		}
		batches[i] = sums
	}
	if err := e.installIndexes(indexSet{walks: walks, prop: prop, searcher: searcher}); err != nil {
		return err
	}
	// Nothing can fail from here on, so the cache only ever holds views
	// into mappings the engine keeps.
	for i, m := range methods {
		e.corpus.cache.putAll(m, batches[i])
	}
	e.handles, e.mapped = handles, true
	if e.met != nil {
		e.met.indexDur.Observe(time.Since(loadStart).Seconds())
	}
	// The atomic store publishes every field written above, exactly as
	// in BuildIndexes.
	e.ready.Store(true)
	return nil
}
