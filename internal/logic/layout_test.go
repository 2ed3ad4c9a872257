package logic

import (
	"testing"
	"unsafe"

	"rdfault/internal/cacheline"
	"rdfault/internal/circuit"
	"rdfault/internal/gen"
)

// span is a half-open address range [lo, hi).
type span struct{ lo, hi uintptr }

func sliceSpan[T any](s []T) span {
	if cap(s) == 0 {
		return span{}
	}
	var zero T
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(zero)}
}

// writtenSpans is what an assignment writes: the struct fields between
// the pads, the packed values, the queue mask and the two arenas.
func writtenSpans(e *Engine) []span {
	base := uintptr(unsafe.Pointer(e))
	return []span{
		{base + unsafe.Offsetof(e.c), base + unsafe.Offsetof(e.nImply) + unsafe.Sizeof(e.nImply)},
		sliceSpan(e.val), sliceSpan(e.queued), sliceSpan(e.trail), sliceSpan(e.queue),
	}
}

// allSpans is every byte of an engine: the whole struct, pads included,
// and every array it owns.
func allSpans(e *Engine) []span {
	base := uintptr(unsafe.Pointer(e))
	return append([]span{{base, base + unsafe.Sizeof(*e)}}, writtenSpans(e)[1:]...)
}

// sharesLine reports whether a and b touch a common cacheline.Size-aligned
// block: with 128-byte blocks this covers a shared 64-byte line and a
// line the adjacent-line prefetcher pairs with one.
func sharesLine(a, b span) bool {
	if a.lo == a.hi || b.lo == b.hi {
		return false
	}
	const mask = ^uintptr(cacheline.Size - 1)
	return a.lo&mask <= (b.hi-1)&mask && b.lo&mask <= (a.hi-1)&mask
}

// TestEngineLayoutNoSharedLines: two engines built back to back on one
// goroutine — the way a parallel enumeration builds its walkers' engines
// — share no cache line between what one engine writes on an assignment
// and any part of the other. Small circuits are the risky case: their
// value arrays and queue masks are a few dozen bytes and would otherwise
// sit next to each other.
func TestEngineLayoutNoSharedLines(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		gen.PaperExample(),
		gen.RandomCircuit("small", gen.RandomOptions{Inputs: 5, Gates: 12, Outputs: 2}, 1),
		gen.RandomCircuit("mid", gen.RandomOptions{Inputs: 36, Gates: 534, Outputs: 7}, 3),
	} {
		engines := []*Engine{NewEngine(c), NewEngine(c), NewEngine(c)}
		for i, a := range engines {
			for j, b := range engines {
				if i == j {
					continue
				}
				for _, w := range writtenSpans(a) {
					for _, o := range allSpans(b) {
						if sharesLine(w, o) {
							t.Errorf("%s: engine %d writes [%#x,%#x), which shares a %d-byte block with engine %d's [%#x,%#x)",
								c.Name(), i, w.lo, w.hi, cacheline.Size, j, o.lo, o.hi)
						}
					}
				}
			}
		}
	}
}
