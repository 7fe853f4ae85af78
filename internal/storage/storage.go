// Package storage persists the costly offline artifacts — the random-walk
// index (Algorithm 6; §6.6 reports ~7 hours at full scale), the
// personalized propagation index (Section 5.1) and materialized topic
// summaries — so a deployment builds them once per dataset snapshot and
// reloads them at startup, exactly the amortization argument of §6.6.
//
// There is one on-disk format, flat binary "pitsearch-index-v2": the
// indexes' backing arrays as little-endian machine words behind a
// checksummed section TOC (binary.go). Save* writes it through a temp
// file plus atomic rename, so a crash mid-save never corrupts an
// existing artifact. Open* maps the file and reinterprets sections in
// place (view.go), so cold start costs page-table setup instead of a
// full decode, and returns a Handle that owns the mapping. A file with
// any other magic — including the retired gob "pitsearch-index-v1" — is
// a hard error; rebuild it with datagen -index-dir.
package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/propidx"
	"repro/internal/randwalk"
	"repro/internal/summary"
)

// Artifact kinds (the header's kind field is 8 bytes).
const (
	kindWalks = "walks"
	kindProp  = "prop"
	kindSums  = "sums"
)

// Format names an on-disk index format. FormatV2 is the only one; the
// type survives because core.Engine.SaveArtifacts takes it.
type Format string

// FormatV2 is the flat binary mmap-able format.
const FormatV2 Format = "v2"

// Handle owns the file mapping behind a loaded artifact. Close is
// idempotent; after it returns, slices adopted from the artifact must
// no longer be accessed (on Linux, access faults).
type Handle struct {
	once    sync.Once
	closeFn func() error
	err     error
}

// Close releases the mapping (first call only; later calls return the
// first result).
func (h *Handle) Close() error {
	h.once.Do(func() { h.err = h.closeFn() })
	return h.err
}

// atomicWriteFile writes via a temp file in path's directory and
// renames it into place, so a crash or failed write leaves any existing
// artifact untouched and never exposes a partially written file.
func atomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("storage: flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("storage: close: %w", err)
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("storage: rename: %w", err)
	}
	return nil
}

// open maps path and parses its envelope. On success the Handle owns
// the mapping; on any error the mapping is released before returning.
func open(path, kind string) (*v2File, *Handle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	data, closer, err := mapFile(f, st.Size())
	if err != nil {
		return nil, nil, err
	}
	vf, err := parseV2(data, kind)
	if err != nil {
		closer()
		return nil, nil, err
	}
	return vf, &Handle{closeFn: closer}, nil
}

// openAs opens path as a kind artifact and decodes it; a decode failure
// releases the mapping.
func openAs[T any](path, kind string, decode func(*v2File) (T, error)) (T, *Handle, error) {
	var zero T
	vf, h, err := open(path, kind)
	if err != nil {
		return zero, nil, err
	}
	v, err := decode(vf)
	if err != nil {
		h.Close()
		return zero, nil, err
	}
	return v, h, nil
}

// SaveWalkIndex persists a walk index to path.
func SaveWalkIndex(path string, ix *randwalk.Index) error {
	if ix == nil {
		return fmt.Errorf("storage: nil walk index")
	}
	return atomicWriteFile(path, encodeWalksV2(ix).writeTo)
}

// OpenWalkIndex reads a walk index from path. The index's backing
// arrays are views into the returned Handle's mapping: treat them as
// immutable and keep the Handle open for the index's lifetime.
func OpenWalkIndex(path string) (*randwalk.Index, *Handle, error) {
	return openAs(path, kindWalks, decodeWalksV2)
}

// SavePropIndex persists a propagation index to path.
func SavePropIndex(path string, ix *propidx.Index) error {
	if ix == nil {
		return fmt.Errorf("storage: nil propagation index")
	}
	return atomicWriteFile(path, encodePropV2(ix).writeTo)
}

// OpenPropIndex reads a propagation index from path; see OpenWalkIndex
// for the Handle contract.
func OpenPropIndex(path string) (*propidx.Index, *Handle, error) {
	return openAs(path, kindProp, decodePropV2)
}

// SaveSummaries persists a batch of materialized topic summaries (the
// topic-to-representative index of Figures 15–16) to path.
func SaveSummaries(path string, sums []summary.Summary) error {
	return atomicWriteFile(path, encodeSumsV2(sums).writeTo)
}

// OpenSummaries reads a summary batch from path; see OpenWalkIndex for
// the Handle contract.
func OpenSummaries(path string) ([]summary.Summary, *Handle, error) {
	return openAs(path, kindSums, decodeSumsV2)
}
