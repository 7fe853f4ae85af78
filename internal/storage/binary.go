package storage

// The pitsearch-index-v2 flat binary envelope. Layout:
//
//	header (48 bytes)
//	  [ 0:24)  magic, "pitsearch-index-v2" NUL-padded
//	  [24:32)  kind, NUL-padded ("walks", "prop", "sums")
//	  [32:36)  u32 section count
//	  [36:40)  u32 CRC-32C of the TOC bytes
//	  [40:48)  u64 total file size
//	toc (24 bytes per section, immediately after the header)
//	  [ 0: 4)  u32 section id
//	  [ 4: 8)  u32 CRC-32C of the section bytes
//	  [ 8:16)  u64 section offset from file start
//	  [16:24)  u64 section size in bytes
//	sections (each at an 8-byte-aligned offset, zero-padded between)
//
// All integers little-endian. The header and TOC sizes are multiples of
// 8, and section offsets are aligned up to 8, so every section of
// 8-byte elements can be reinterpreted in place (view.go). Sections are
// identified by id, not position, so a future writer can append new
// sections without breaking old readers; removing or reshaping a
// section is a magic bump. Every parse-side length is validated before
// use and every failure is a wrapped "storage:" error — a truncated,
// corrupt or adversarial file must never panic or allocate
// proportionally to a lied-about length.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/propidx"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

const (
	magicV2      = "pitsearch-index-v2"
	headerSize   = 48
	tocEntrySize = 24

	// maxSections bounds the TOC so a corrupt count cannot drive a
	// large allocation; real files have at most 5 sections.
	maxSections = 1024
)

// Section ids. secMeta is common to all kinds; ids 2..5 are per-kind.
const (
	secMeta uint32 = 1

	secWalksWalks       uint32 = 2 // []int32, flat walk array
	secWalksH           uint32 = 3 // []float64, L rows of N concatenated
	secWalksReachOff    uint32 = 4 // []int32, CSR offsets (N+1)
	secWalksReachStarts uint32 = 5 // []int32, CSR values

	secPropOff       uint32 = 2 // []int32, CSR offsets
	secPropSrc       uint32 = 3 // []int32, source node runs
	secPropProp      uint32 = 4 // []float64, aggregated propagation
	secPropPotential uint32 = 5 // []bool, one byte per entry

	secSumsTopics uint32 = 2 // []int32, topic ids
	secSumsRepOff uint32 = 3 // []int64, rep offsets (count+1)
	secSumsReps   uint32 = 4 // 16-byte records: node i32, pad, weight f64
)

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on
// amd64/arm64, which matters when checksumming multi-GB sections.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2Section is one section staged for writing. Data may be chunked
// (e.g. the H rows are separately allocated []float64s) — chunks are
// written back to back as a single section.
type v2Section struct {
	id     uint32
	chunks [][]byte
}

func (s *v2Section) size() uint64 {
	var n uint64
	for _, c := range s.chunks {
		n += uint64(len(c))
	}
	return n
}

// v2Writer stages sections and writes the whole file.
type v2Writer struct {
	kind string
	secs []v2Section
}

func newV2Writer(kind string) *v2Writer {
	return &v2Writer{kind: kind}
}

func (w *v2Writer) add(id uint32, chunks ...[]byte) {
	w.secs = append(w.secs, v2Section{id: id, chunks: chunks})
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// writeTo lays out and writes the file: header, TOC, aligned sections.
func (w *v2Writer) writeTo(out io.Writer) error {
	if len(w.kind) > 8 {
		return fmt.Errorf("storage: kind %q exceeds 8 bytes", w.kind)
	}
	// Lay out sections and checksum them.
	tocEnd := uint64(headerSize + len(w.secs)*tocEntrySize)
	toc := make([]byte, len(w.secs)*tocEntrySize)
	cursor := tocEnd
	for i := range w.secs {
		s := &w.secs[i]
		off := align8(cursor)
		size := s.size()
		crc := crc32.New(castagnoli)
		for _, c := range s.chunks {
			crc.Write(c)
		}
		e := toc[i*tocEntrySize:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], crc.Sum32())
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], size)
		cursor = off + size
	}
	fileSize := cursor

	var hdr [headerSize]byte
	copy(hdr[0:24], magicV2)
	copy(hdr[24:32], w.kind)
	binary.LittleEndian.PutUint32(hdr[32:], uint32(len(w.secs)))
	binary.LittleEndian.PutUint32(hdr[36:], crc32.Checksum(toc, castagnoli))
	binary.LittleEndian.PutUint64(hdr[40:], fileSize)

	bw := io.Writer(out)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("storage: write header: %w", err)
	}
	if _, err := bw.Write(toc); err != nil {
		return fmt.Errorf("storage: write toc: %w", err)
	}
	var pad [8]byte
	written := tocEnd
	for i := range w.secs {
		off := binary.LittleEndian.Uint64(toc[i*tocEntrySize+8:])
		if off > written {
			if _, err := bw.Write(pad[:off-written]); err != nil {
				return fmt.Errorf("storage: write padding: %w", err)
			}
			written = off
		}
		for _, c := range w.secs[i].chunks {
			if _, err := bw.Write(c); err != nil {
				return fmt.Errorf("storage: write section %d: %w", w.secs[i].id, err)
			}
			written += uint64(len(c))
		}
	}
	return nil
}

// v2File is a parsed (typically mmap'd) v2 index file. Section slices
// alias the underlying mapping.
type v2File struct {
	kind string
	secs map[uint32][]byte
}

// trimNUL returns the fixed-width header field up to its NUL padding.
func trimNUL(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// paddedFieldIs reports whether b is exactly s followed by NULs — the
// canonical encoding of a fixed-width header field. Stray bytes after
// the NUL are rejected so every header byte has exactly one valid
// value.
func paddedFieldIs(b []byte, s string) bool {
	if len(s) > len(b) || string(b[:len(s)]) != s {
		return false
	}
	for _, c := range b[len(s):] {
		if c != 0 {
			return false
		}
	}
	return true
}

// parseV2 validates the envelope of a fully loaded v2 file and indexes
// its sections. Every offset and size is checked against len(data)
// before any slicing, and every section's CRC is verified, so a
// truncated or bit-flipped file fails here with a descriptive error.
func parseV2(data []byte, wantKind string) (*v2File, error) {
	if len(data) < 24 || !paddedFieldIs(data[0:24], magicV2) {
		return nil, fmt.Errorf("storage: not a %s artifact (leading bytes %q): it is the only format read — gob pitsearch-index-v1 files no longer are; rebuild with `datagen -index-dir`",
			magicV2, data[:min(len(data), 24)])
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("storage: file too small for v2 header (%d bytes)", len(data))
	}
	kind := trimNUL(data[24:32])
	if kind != wantKind {
		return nil, fmt.Errorf("storage: file holds %q, expected %q", kind, wantKind)
	}
	if !paddedFieldIs(data[24:32], kind) {
		return nil, fmt.Errorf("storage: malformed kind field")
	}
	count := binary.LittleEndian.Uint32(data[32:])
	if count > maxSections {
		return nil, fmt.Errorf("storage: section count %d exceeds limit %d", count, maxSections)
	}
	if fileSize := binary.LittleEndian.Uint64(data[40:]); fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("storage: header claims %d bytes, file has %d (truncated?)", fileSize, len(data))
	}
	tocEnd := uint64(headerSize) + uint64(count)*tocEntrySize
	if tocEnd > uint64(len(data)) {
		return nil, fmt.Errorf("storage: file too small for %d-section toc", count)
	}
	toc := data[headerSize:tocEnd]
	if got, want := crc32.Checksum(toc, castagnoli), binary.LittleEndian.Uint32(data[36:]); got != want {
		return nil, fmt.Errorf("storage: toc checksum mismatch (got %08x, want %08x)", got, want)
	}
	// Sections must sit exactly where the writer puts them: contiguous
	// in TOC order, each aligned up to 8 with zero padding between, the
	// file ending at the last section's end. Enforcing the canonical
	// layout means every byte of a valid file is pinned — header fields,
	// CRC'd TOC and sections, and forced-zero padding — so any flipped
	// byte is detected, and overlapping or dangling sections are
	// impossible by construction.
	f := &v2File{kind: kind, secs: make(map[uint32][]byte, count)}
	cursor := tocEnd
	for i := uint32(0); i < count; i++ {
		e := toc[i*tocEntrySize:]
		id := binary.LittleEndian.Uint32(e[0:])
		wantCRC := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		size := binary.LittleEndian.Uint64(e[16:])
		if _, dup := f.secs[id]; dup {
			return nil, fmt.Errorf("storage: duplicate section id %d", id)
		}
		if off != align8(cursor) {
			return nil, fmt.Errorf("storage: section %d at offset %d, want %d", id, off, align8(cursor))
		}
		if off > uint64(len(data)) || size > uint64(len(data))-off {
			return nil, fmt.Errorf("storage: section %d out of bounds (offset %d size %d, file %d)", id, off, size, len(data))
		}
		for _, pad := range data[cursor:off] {
			if pad != 0 {
				return nil, fmt.Errorf("storage: nonzero padding before section %d", id)
			}
		}
		sec := data[off : off+size]
		if got := crc32.Checksum(sec, castagnoli); got != wantCRC {
			return nil, fmt.Errorf("storage: section %d checksum mismatch (got %08x, want %08x)", id, got, wantCRC)
		}
		f.secs[id] = sec
		cursor = off + size
	}
	if cursor != uint64(len(data)) {
		return nil, fmt.Errorf("storage: %d trailing bytes after last section", uint64(len(data))-cursor)
	}
	return f, nil
}

// section returns a required section's bytes.
func (f *v2File) section(id uint32) ([]byte, error) {
	sec, ok := f.secs[id]
	if !ok {
		return nil, fmt.Errorf("storage: %s file missing section %d", f.kind, id)
	}
	return sec, nil
}

// metaInt64s decodes the fixed-size meta section into n int64 fields.
func (f *v2File) metaInt64s(n int) ([]int64, error) {
	sec, err := f.section(secMeta)
	if err != nil {
		return nil, err
	}
	if len(sec) != n*8 {
		return nil, fmt.Errorf("storage: %s meta section is %d bytes, want %d", f.kind, len(sec), n*8)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(sec[i*8:]))
	}
	return out, nil
}

// dimOK bounds a dimension read from disk so products of dimensions
// stay within int64 and conversions to int are safe on 64-bit hosts.
func dimOK(v int64) bool { return v >= 0 && v < 1<<31 }

// --- walks ---

func encodeWalksV2(ix *randwalk.Index) *v2Writer {
	l, r, n, walks, h, reachOff, reachStarts := ix.Raw()
	var meta [24]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(l))
	binary.LittleEndian.PutUint64(meta[8:], uint64(r))
	binary.LittleEndian.PutUint64(meta[16:], uint64(n))
	w := newV2Writer(kindWalks)
	w.add(secMeta, meta[:])
	w.add(secWalksWalks, bytesInt32(walks))
	hChunks := make([][]byte, len(h))
	for j := range h {
		hChunks[j] = bytesFloat64(h[j])
	}
	w.add(secWalksH, hChunks...)
	w.add(secWalksReachOff, bytesInt32(reachOff))
	w.add(secWalksReachStarts, bytesInt32(reachStarts))
	return w
}

func decodeWalksV2(f *v2File) (*randwalk.Index, error) {
	meta, err := f.metaInt64s(3)
	if err != nil {
		return nil, err
	}
	l64, r64, n64 := meta[0], meta[1], meta[2]
	if !dimOK(l64) || !dimOK(r64) || !dimOK(n64) {
		return nil, fmt.Errorf("storage: walks meta out of range (L=%d R=%d N=%d)", l64, r64, n64)
	}
	l, r, n := int(l64), int(r64), int(n64)
	secWalks, err := f.section(secWalksWalks)
	if err != nil {
		return nil, err
	}
	secH, err := f.section(secWalksH)
	if err != nil {
		return nil, err
	}
	secOff, err := f.section(secWalksReachOff)
	if err != nil {
		return nil, err
	}
	secStarts, err := f.section(secWalksReachStarts)
	if err != nil {
		return nil, err
	}
	walks, err := viewInt32(secWalks)
	if err != nil {
		return nil, err
	}
	hFlat, err := viewFloat64(secH)
	if err != nil {
		return nil, err
	}
	if int64(len(hFlat)) != l64*n64 {
		return nil, fmt.Errorf("storage: H section holds %d entries, want %d (L=%d N=%d)", len(hFlat), l64*n64, l, n)
	}
	h := make([][]float64, l)
	for j := range h {
		h[j] = hFlat[j*n : (j+1)*n : (j+1)*n]
	}
	reachOff, err := viewInt32(secOff)
	if err != nil {
		return nil, err
	}
	reachStarts, err := viewInt32(secStarts)
	if err != nil {
		return nil, err
	}
	ix, err := randwalk.Adopt(l, r, n, walks, h, reachOff, reachStarts)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return ix, nil
}

// --- prop ---

func encodePropV2(ix *propidx.Index) *v2Writer {
	theta, off, src, prop, potential := ix.Raw()
	var meta [8]byte
	binary.LittleEndian.PutUint64(meta[0:], math.Float64bits(theta))
	w := newV2Writer(kindProp)
	w.add(secMeta, meta[:])
	w.add(secPropOff, bytesInt32(off))
	w.add(secPropSrc, bytesInt32(src))
	w.add(secPropProp, bytesFloat64(prop))
	w.add(secPropPotential, bytesBool(potential))
	return w
}

func decodePropV2(f *v2File) (*propidx.Index, error) {
	metaSec, err := f.section(secMeta)
	if err != nil {
		return nil, err
	}
	if len(metaSec) != 8 {
		return nil, fmt.Errorf("storage: prop meta section is %d bytes, want 8", len(metaSec))
	}
	theta := math.Float64frombits(binary.LittleEndian.Uint64(metaSec))
	secOff, err := f.section(secPropOff)
	if err != nil {
		return nil, err
	}
	secSrc, err := f.section(secPropSrc)
	if err != nil {
		return nil, err
	}
	secProp, err := f.section(secPropProp)
	if err != nil {
		return nil, err
	}
	secPot, err := f.section(secPropPotential)
	if err != nil {
		return nil, err
	}
	off, err := viewInt32(secOff)
	if err != nil {
		return nil, err
	}
	src, err := viewInt32(secSrc)
	if err != nil {
		return nil, err
	}
	prop, err := viewFloat64(secProp)
	if err != nil {
		return nil, err
	}
	potential, err := viewBool(secPot)
	if err != nil {
		return nil, err
	}
	ix, err := propidx.Adopt(theta, off, src, prop, potential)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return ix, nil
}

// --- sums ---

func encodeSumsV2(sums []summary.Summary) *v2Writer {
	count := len(sums)
	topicIDs := make([]int32, count)
	repOff := make([]int64, count+1)
	var total int
	for i, s := range sums {
		topicIDs[i] = int32(s.Topic)
		repOff[i] = int64(total)
		total += len(s.Reps)
	}
	repOff[count] = int64(total)
	// Encode reps summary by summary so the section is chunked without
	// materializing one giant contiguous buffer.
	repChunks := make([][]byte, count)
	for i, s := range sums {
		repChunks[i] = bytesWeightedNodes(s.Reps)
	}
	var meta [8]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(count))
	w := newV2Writer(kindSums)
	w.add(secMeta, meta[:])
	w.add(secSumsTopics, bytesInt32(topicIDs))
	w.add(secSumsRepOff, bytesInt64(repOff))
	w.add(secSumsReps, repChunks...)
	return w
}

func decodeSumsV2(f *v2File) ([]summary.Summary, error) {
	meta, err := f.metaInt64s(1)
	if err != nil {
		return nil, err
	}
	count64 := meta[0]
	if !dimOK(count64) {
		return nil, fmt.Errorf("storage: sums count %d out of range", count64)
	}
	count := int(count64)
	secTopics, err := f.section(secSumsTopics)
	if err != nil {
		return nil, err
	}
	secOff, err := f.section(secSumsRepOff)
	if err != nil {
		return nil, err
	}
	secReps, err := f.section(secSumsReps)
	if err != nil {
		return nil, err
	}
	topicIDs, err := viewInt32(secTopics)
	if err != nil {
		return nil, err
	}
	if len(topicIDs) != count {
		return nil, fmt.Errorf("storage: topics section holds %d ids, want %d", len(topicIDs), count)
	}
	repOff, err := viewInt64(secOff)
	if err != nil {
		return nil, err
	}
	if len(repOff) != count+1 {
		return nil, fmt.Errorf("storage: rep offsets section holds %d entries, want %d", len(repOff), count+1)
	}
	reps, err := viewWeightedNodes(secReps)
	if err != nil {
		return nil, err
	}
	if count > 0 && repOff[0] != 0 {
		return nil, fmt.Errorf("storage: rep offsets start at %d, want 0", repOff[0])
	}
	for i := 1; i < len(repOff); i++ {
		if repOff[i] < repOff[i-1] {
			return nil, fmt.Errorf("storage: rep offsets decrease at %d", i)
		}
	}
	if count > 0 && repOff[count] != int64(len(reps)) {
		return nil, fmt.Errorf("storage: rep offsets end at %d, want %d", repOff[count], len(reps))
	}
	sums := make([]summary.Summary, count)
	for i := 0; i < count; i++ {
		s := summary.Adopt(topics.TopicID(topicIDs[i]), reps[repOff[i]:repOff[i+1]:repOff[i+1]])
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("storage: summary %d: %w", i, err)
		}
		sums[i] = s
	}
	return sums, nil
}
