// Package cacheline keeps the state one goroutine writes off the cache
// lines other goroutines touch. Objects allocated back to back on one
// goroutine (a parallel run's walkers and their implication engines)
// land next to each other in memory; when each is then written by a
// different core, every write invalidates the neighbour's copy of the
// shared line (false sharing), and the cores spend their time trading
// lines instead of computing.
package cacheline

import "unsafe"

// Size is the padding unit in bytes: two 64-byte lines, because x86's
// adjacent-line prefetcher pulls lines in 128-byte-aligned pairs, so a
// line's partner contends as well.
const Size = 128

// Pad is placed as the first and the last field of a struct whose fields
// one goroutine writes: no other allocation can then share a cache line
// (or a prefetched line pair) with the fields in between.
type Pad [Size]byte

// Slab returns len(lens) slices of T with lengths lens[i] (capacity equal
// to length, so an append never runs into the next slice), carved from
// one backing array that holds at least Size bytes of unused padding
// before the first slice and after the last. Slices that one owner
// writes can then share no cache line with any other allocation.
func Slab[T any](lens ...int) [][]T {
	var zero T
	pad := (Size + int(unsafe.Sizeof(zero)) - 1) / int(unsafe.Sizeof(zero))
	n := 2 * pad
	for _, l := range lens {
		n += l
	}
	backing := make([]T, n)
	out := make([][]T, len(lens))
	off := pad
	for i, l := range lens {
		out[i] = backing[off : off+l : off+l]
		off += l
	}
	return out
}
