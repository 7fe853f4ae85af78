package storage

// The zero-copy reinterpret seam. A v2 index file holds the backing
// arrays of the offline indexes as raw little-endian machine words,
// 8-byte aligned; on a little-endian host the loaded (usually mmap'd)
// byte sections are reinterpreted in place as []int32 / []int64 /
// []float64 / []summary.WeightedNode views, so loading costs slice
// headers instead of element-wise decoding and the data stays
// demand-paged. This file is the only place in the module allowed to
// use package unsafe (enforced by the unsafeslice analyzer); everything
// above it sees ordinary slices documented as immutable.
//
// Every view has a copying fallback (explicit binary.LittleEndian
// decoding) used when the host is big-endian, when a section is
// misaligned, or when the struct layout assertion fails — so the format
// is portable even where the fast path is unavailable. Tests force the
// fallback via forceCopyViews to keep it covered.

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/summary"
)

// hostLittleEndian reports whether the running machine stores words
// little-endian — the v2 on-disk byte order, and the precondition for
// reinterpreting file bytes as typed slices.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// weightedNodeLayoutOK asserts the memory layout the reps section
// mirrors: WeightedNode is 16 bytes with Node at offset 0 and Weight at
// offset 8 (int32, 4 bytes padding, float64). Go guarantees field order
// and alignment but not padding placement in general, so the zero-copy
// view depends on this check and falls back to copying otherwise.
var weightedNodeLayoutOK = unsafe.Sizeof(summary.WeightedNode{}) == 16 &&
	unsafe.Offsetof(summary.WeightedNode{}.Node) == 0 &&
	unsafe.Offsetof(summary.WeightedNode{}.Weight) == 8

// forceCopyViews makes every view take the copying fallback; set by
// tests so the portable path stays exercised on little-endian hosts.
var forceCopyViews = false

// zeroCopyOK reports whether b may be reinterpreted in place as a slice
// of elemSize-byte elements.
func zeroCopyOK(b []byte, elemSize int) bool {
	if forceCopyViews || !hostLittleEndian || len(b) == 0 {
		return false
	}
	return uintptr(unsafe.Pointer(&b[0]))%uintptr(elemSize) == 0
}

// viewInt32 returns b as []int32, zero-copy when possible.
func viewInt32(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("storage: int32 section size %d not a multiple of 4", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return []int32{}, nil
	}
	if zeroCopyOK(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// viewInt64 returns b as []int64, zero-copy when possible.
func viewInt64(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("storage: int64 section size %d not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return []int64{}, nil
	}
	if zeroCopyOK(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// viewFloat64 returns b as []float64 (raw IEEE-754 bits), zero-copy
// when possible.
func viewFloat64(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("storage: float64 section size %d not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return []float64{}, nil
	}
	if zeroCopyOK(b, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// viewBool returns b as []bool. Every byte must be 0 or 1: a Go bool
// with any other bit pattern has undefined comparison behavior, so the
// load rejects such sections instead of reinterpreting them.
func viewBool(b []byte) ([]bool, error) {
	for i, v := range b {
		if v > 1 {
			return nil, fmt.Errorf("storage: bool section byte %d holds %d, want 0 or 1", i, v)
		}
	}
	if len(b) == 0 {
		return []bool{}, nil
	}
	if !forceCopyViews {
		return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), len(b)), nil
	}
	out := make([]bool, len(b))
	for i, v := range b {
		out[i] = v == 1
	}
	return out, nil
}

// viewWeightedNodes returns b as []summary.WeightedNode. On-disk record
// layout: node int32 LE at +0, 4 zero bytes, weight float64 bits LE at
// +8 — exactly the gc memory layout asserted by weightedNodeLayoutOK,
// so the fast path is a reinterpret and the fallback decodes records.
func viewWeightedNodes(b []byte) ([]summary.WeightedNode, error) {
	if len(b)%16 != 0 {
		return nil, fmt.Errorf("storage: reps section size %d not a multiple of 16", len(b))
	}
	n := len(b) / 16
	if n == 0 {
		return []summary.WeightedNode{}, nil
	}
	if zeroCopyOK(b, 8) && weightedNodeLayoutOK {
		return unsafe.Slice((*summary.WeightedNode)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]summary.WeightedNode, n)
	for i := range out {
		rec := b[i*16:]
		out[i] = summary.WeightedNode{
			Node:   int32(binary.LittleEndian.Uint32(rec)),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
		}
	}
	return out, nil
}

// bytesInt32 returns s's memory as bytes for writing, zero-copy on a
// little-endian host (the write path's symmetric fast path); the
// fallback encodes explicitly.
func bytesInt32(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian && !forceCopyViews {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// bytesInt64 is bytesInt32 for []int64.
func bytesInt64(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian && !forceCopyViews {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// bytesFloat64 is bytesInt32 for []float64 (raw IEEE-754 bits).
func bytesFloat64(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian && !forceCopyViews {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// bytesBool returns s's memory as bytes. The gc compiler stores bool as
// one byte holding exactly 0 or 1 (assignments of true/false produce no
// other pattern), so the memory image is deterministic; viewBool
// re-validates the 0/1 invariant on every load regardless.
func bytesBool(s []bool) []byte {
	if len(s) == 0 {
		return nil
	}
	if !forceCopyViews {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
	}
	out := make([]byte, len(s))
	for i, v := range s {
		if v {
			out[i] = 1
		}
	}
	return out
}

// bytesWeightedNodes encodes reps as 16-byte on-disk records. Always a
// copying encode, never a struct memcpy: Go does not define the content
// of padding bytes, and writing uninitialized padding would make two
// saves of identical data differ — breaking CRC reproducibility and
// leaking heap bytes into artifacts.
func bytesWeightedNodes(s []summary.WeightedNode) []byte {
	out := make([]byte, len(s)*16)
	for i, r := range s {
		rec := out[i*16:]
		binary.LittleEndian.PutUint32(rec, uint32(r.Node))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r.Weight))
	}
	return out
}
