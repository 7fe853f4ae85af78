package core

// Artifact persistence for the engine: SaveArtifacts writes the built
// offline indexes (and any materialized summary batches) to a
// directory, LoadArtifacts restores them — the deployment shape the
// paper's §6.6 amortization argument assumes, where the ~7-hour index
// build happens once per dataset snapshot and every serving process
// cold-starts from the artifact directory.
//
// The restored indexes are zero-copy views into read-only file mappings
// (internal/storage's one format), which gives a loaded engine a
// different shutdown contract from a built one: Close must drain
// in-flight queries through the query gate (gate.go) before releasing
// the mappings, and queries arriving after Close fail with ErrNotReady
// instead of reading unmapped memory. A built engine owns its indexes on
// the heap and keeps serving its cache after Close.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/search"
	"repro/internal/storage"
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

// SaveArtifacts persists the engine's built indexes, plus the cached
// summary batch of each method that has one, into dir. Every file is
// written atomically (temp + rename), so a crash mid-save never corrupts
// an existing artifact directory. The engine must be ready.
//
// There is one format; the parameter (anything but storage.FormatV2 is
// ErrInvalidArgument) stays ONLY because the frozen benchmark/ harness
// compiles against this signature. New code calls SaveArtifactsFiltered
// with a nil filter.
func (e *Engine) SaveArtifacts(dir string, format storage.Format) error {
	if format != storage.FormatV2 {
		return fmt.Errorf("%w: unknown artifact format %q", ErrInvalidArgument, format)
	}
	return e.SaveArtifactsFiltered(dir, nil)
}

// SaveArtifactsFiltered is SaveArtifacts with a summary filter: only
// cached summaries whose topic satisfies keep are persisted (nil keeps
// everything). The index artifacts are always written in full — a
// shard snapshot is self-contained, hydrating anywhere the dataset's
// graph is available. shard.WriteShardArtifacts uses this to write one
// artifact directory per topic-shard holding exactly the summaries that
// shard's partition owns.
func (e *Engine) SaveArtifactsFiltered(dir string, keep func(topics.TopicID) bool) error {
	if err := e.requireIndexes(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: artifact dir: %w", err)
	}
	if err := storage.SaveWalkIndex(filepath.Join(dir, WalkArtifact), e.idx.walks); err != nil {
		return err
	}
	if err := storage.SavePropIndex(filepath.Join(dir, PropArtifact), e.idx.prop); err != nil {
		return err
	}
	for _, m := range []Method{MethodLRW, MethodRCL} {
		sums := e.corpus.cache.snapshotMethod(m)
		if keep != nil {
			kept := sums[:0]
			for _, s := range sums {
				if keep(s.Topic) {
					kept = append(kept, s)
				}
			}
			sums = kept
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

// LoadArtifacts restores the offline indexes from dir, making the engine
// ready without running the index builds. Summary batches present in dir
// are preloaded into the cache. The artifacts must match the engine's
// graph — node counts are validated so an artifact from a different
// dataset snapshot fails loudly here instead of answering garbage.
//
// The indexes are zero-copy views into read-only mappings owned by the
// engine; Close drains in-flight queries and then releases the mappings,
// and later queries fail with ErrNotReady.
func (e *Engine) LoadArtifacts(dir string) (retErr error) {
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
	for _, m := range []Method{MethodLRW, MethodRCL} {
		sums, hs, err := storage.OpenSummaries(filepath.Join(dir, SummaryArtifact(m)))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("core: %s summaries artifact: %w", m, err)
		}
		handles = append(handles, hs)
		if err := e.PreloadSummaries(m, sums); err != nil {
			return fmt.Errorf("core: %s summaries artifact: %w", m, err)
		}
	}
	if err := e.installIndexes(indexSet{walks: walks, prop: prop, searcher: searcher}); err != nil {
		return err
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
