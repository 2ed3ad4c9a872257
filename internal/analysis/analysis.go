// Package analysis is the derived-data manager of the RD pipeline: a
// concurrency-safe, lazily-memoized cache of everything that can be
// computed once per circuit and shared — exact big.Int path counts,
// levelization, SCOAP testability measures, static timing analyses, a
// free-list of implication engines, and a generic compute-once memo for
// higher layers (input sorts, Algorithm 3 passes).
//
// The design is the compiler "analysis manager" pattern: analyses are
// keyed on an immutable IR version (circuit.Circuit.Version, bumped by
// every Builder.Build), computed at most once per version even under
// concurrent demand (singleflight via per-handle locking), and can never
// go stale — a rewritten circuit is a new circuit with a new version, so
// handles of the old version simply stop being requested. The paper's
// speed claim rests on these analyses being cheap; this package makes
// them cheap *once* instead of cheap at every call site.
package analysis

import (
	"hash/maphash"
	"math"
	"math/big"
	"sync"

	"rdfault/internal/circuit"
	"rdfault/internal/faultinject"
	"rdfault/internal/logic"
	"rdfault/internal/paths"
	"rdfault/internal/scoap"
	"rdfault/internal/sim"
	"rdfault/internal/timing"
)

// DefaultCapacity bounds the number of circuit versions the global
// registry retains. Long-running services iterate over many circuits
// (per-cone extractions, DFT rewrites, suite sweeps); least-recently-used
// versions are evicted beyond this bound so the registry cannot grow
// without limit. Handed-out *Analysis handles stay valid after eviction —
// eviction only forgets the version-to-handle association.
const DefaultCapacity = 128

// Analysis is the compute-once handle set for one circuit version.
// All getters are safe for concurrent use; each underlying analysis is
// computed at most once per handle, with concurrent requesters blocking
// on the single in-flight computation rather than duplicating it.
type Analysis struct {
	c *circuit.Circuit

	countsOnce sync.Once
	counts     *paths.Counts

	logicalOnce sync.Once
	logical     *big.Int

	levelsOnce sync.Once
	levels     [][]circuit.GateID

	scoapOnce sync.Once
	scoapM    *scoap.Measures

	scoapSortOnce sync.Once
	scoapSort     circuit.InputSort

	timingMu sync.Mutex
	timings  map[uint64][]*timingEntry

	// engines is the logic.Engine free-list: enumeration workers and the
	// DFT analyses borrow engines instead of reallocating value arrays,
	// trails and watch queues per run. Engines are returned fully reset.
	// An explicit list (not a sync.Pool) so pooled engines survive GC
	// cycles and a steady-state borrow/return round trip performs zero
	// allocations — a sync.Pool may drop its contents at any GC and then
	// silently re-run NewEngine (val/queued/trail/queue arena allocations)
	// in the middle of the enumeration hot loop.
	engineMu sync.Mutex
	engines  []*logic.Engine

	memoMu sync.Mutex
	memo   map[string]any // completed memo values only
}

type timingEntry struct {
	gate []float64 // copied key: per-gate delays
	an   *timing.Analysis
}

// memoCell is one in-flight singleflight computation. Cells live in the
// global version-keyed inflight table (not in the handle) for exactly as
// long as the computation runs, so concurrent demand joins one
// computation even when Drop/SetCapacity retired the handle mid-flight
// and a later For minted a new one.
type memoCell struct {
	mu  sync.Mutex
	ran bool
	v   any
	err error
}

// inflightKey identifies one (circuit version, analysis) computation.
type inflightKey struct {
	version uint64
	key     string
}

// inflight is the cross-handle singleflight table. Entries are removed
// the moment their computation finishes (success or failure): completed
// values live only in handle-local caches, which is what keeps Drop's
// "forget this version" semantics intact.
var inflight = struct {
	mu sync.Mutex
	m  map[inflightKey]*memoCell
}{m: make(map[inflightKey]*memoCell)}

func newAnalysis(c *circuit.Circuit) *Analysis {
	return &Analysis{c: c}
}

// Circuit returns the circuit this handle set is bound to.
func (a *Analysis) Circuit() *circuit.Circuit { return a.c }

// Version returns the circuit version the handles are keyed on.
func (a *Analysis) Version() uint64 { return a.c.Version() }

// Flat returns the circuit's cache-flat netlist layout (CSR adjacency,
// type and level arrays). Like every derived artifact it is built once
// per circuit version and shared read-only; the call merely forwards to
// the layout cached on the circuit itself.
func (a *Analysis) Flat() *circuit.Flat { return a.c.Flat() }

// Counts returns the exact per-gate path counts, computed once per
// circuit version. The returned Counts (and the big.Ints it exposes) are
// shared — treat them as read-only.
func (a *Analysis) Counts() *paths.Counts {
	a.countsOnce.Do(func() { a.counts = paths.NewCounts(a.c) })
	return a.counts
}

// Logical returns the total number of logical paths |LP(C)|. The value
// is computed once and shared; do not mutate it — use CopyLogical for a
// caller-owned copy.
func (a *Analysis) Logical() *big.Int {
	a.logicalOnce.Do(func() { a.logical = a.Counts().Logical() })
	return a.logical
}

// CopyLogical returns a fresh copy of Logical, safe to mutate.
func (a *Analysis) CopyLogical() *big.Int {
	return new(big.Int).Set(a.Logical())
}

// Levels returns the levelization of the circuit: gates grouped by logic
// level (Levels()[l] lists every gate at level l, in GateID order; index
// 0 holds the PIs). Shared and read-only.
func (a *Analysis) Levels() [][]circuit.GateID {
	a.levelsOnce.Do(func() {
		lv := make([][]circuit.GateID, a.c.Depth()+1)
		for g := circuit.GateID(0); int(g) < a.c.NumGates(); g++ {
			l := a.c.Level(g)
			lv[l] = append(lv[l], g)
		}
		a.levels = lv
	})
	return a.levels
}

// SCOAP returns the SCOAP testability measures, computed once per
// circuit version. Shared and read-only.
func (a *Analysis) SCOAP() *scoap.Measures {
	a.scoapOnce.Do(func() { a.scoapM = scoap.Compute(a.c) })
	return a.scoapM
}

// SCOAPSort returns the SCOAP-driven input sort, derived once from the
// cached measures. Shared and read-only.
func (a *Analysis) SCOAPSort() circuit.InputSort {
	a.scoapSortOnce.Do(func() { a.scoapSort = a.SCOAP().Sort() })
	return a.scoapSort
}

var timingSeed = maphash.MakeSeed()

// Timing returns the static timing analysis for the given delays,
// computed once per (circuit version, delay vector). Distinct delay
// assignments get distinct cached analyses, keyed by delay content (the
// vector is copied, so later caller-side mutation of d cannot corrupt
// the cache). Shared and read-only.
func (a *Analysis) Timing(d sim.Delays) *timing.Analysis {
	var h maphash.Hash
	h.SetSeed(timingSeed)
	for _, v := range d.Gate {
		bits := math.Float64bits(v)
		var b [8]byte
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	key := h.Sum64()

	a.timingMu.Lock()
	defer a.timingMu.Unlock()
	if a.timings == nil {
		a.timings = make(map[uint64][]*timingEntry)
	}
	for _, e := range a.timings[key] {
		if delaysEqual(e.gate, d.Gate) {
			return e.an
		}
	}
	e := &timingEntry{
		gate: append([]float64(nil), d.Gate...),
		an:   timing.New(a.c, d),
	}
	a.timings[key] = append(a.timings[key], e)
	return e.an
}

func delaysEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Engine borrows an implication engine for the handle's circuit from the
// free-list (allocating one only when the list is empty). The engine is
// clean: all gates at X, empty trail. Return it with PutEngine when
// done; an engine borrowed and never returned is simply garbage.
// Steady-state borrow/return round trips are allocation-free: popping
// reuses the retained list storage and the pooled engines are never
// dropped behind the caller's back.
func (a *Analysis) Engine() *logic.Engine {
	a.engineMu.Lock()
	if n := len(a.engines); n > 0 {
		e := a.engines[n-1]
		a.engines[n-1] = nil
		a.engines = a.engines[:n-1]
		a.engineMu.Unlock()
		return e
	}
	a.engineMu.Unlock()
	return logic.NewEngine(a.c)
}

// PutEngine resets e (O(trail), never O(circuit)) and returns it to the
// free-list for reuse. Engines created for a different circuit are
// dropped — cross-circuit trail leakage is structurally impossible.
func (a *Analysis) PutEngine(e *logic.Engine) {
	if e == nil || e.Circuit() != a.c {
		return
	}
	e.Reset()
	a.engineMu.Lock()
	a.engines = append(a.engines, e)
	a.engineMu.Unlock()
}

// Memo returns the compute-once value for key on this circuit version,
// invoking f at most once even under concurrent callers (later callers
// block on the in-flight computation and then share its result). If f
// returns a non-nil error nothing is cached and the error is returned —
// a later call retries. f must not recursively Memo the same key.
//
// The singleflight holds across registry churn: coordination is keyed on
// (circuit version, key) in a global in-flight table rather than on the
// handle, so a Drop/SetCapacity eviction racing with a long computation
// cannot let a freshly-minted handle start a second concurrent run of
// the same analysis. Completed values are cached per handle only — an
// explicit Drop still forgets them, and the next demand recomputes.
//
// Memo is the extension point for analyses that live in higher layers
// (input sorts, Algorithm 3's enumeration passes) and therefore cannot
// be named here without an import cycle. Keys are namespaced by
// convention: "<package>.<analysis>". Fault-injection point:
// faultinject.PointAnalysisMemo (a KindError rule makes the derived-data
// computation fail like an allocation would).
func (a *Analysis) Memo(key string, f func() (any, error)) (any, error) {
	if v, ok := a.cached(key); ok {
		return v, nil
	}

	if err := faultinject.Fire(faultinject.PointAnalysisMemo); err != nil {
		return nil, err
	}

	k := inflightKey{a.c.Version(), key}
	inflight.mu.Lock()
	cell, ok := inflight.m[k]
	if !ok {
		cell = &memoCell{}
		inflight.m[k] = cell
	}
	inflight.mu.Unlock()

	cell.mu.Lock()
	if !cell.ran {
		// Leader: run the computation, publish a success to the handle
		// cache, then retire the cell, so completed state lives only in
		// handle caches (Drop must stay able to forget it, and a failed
		// run must be retryable). Publishing before retiring leaves no
		// moment with neither cell nor value; a caller that missed the
		// cache before the publish and mints a fresh cell after the
		// retirement finds the value on the re-check instead of running
		// f again.
		cell.ran = true
		if v, ok := a.cached(key); ok {
			cell.v = v
		} else if cell.v, cell.err = f(); cell.err == nil {
			cell.v = a.publish(key, cell.v)
		}
		inflight.mu.Lock()
		if inflight.m[k] == cell {
			delete(inflight.m, k)
		}
		inflight.mu.Unlock()
	}
	v, err := cell.v, cell.err
	cell.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return a.publish(key, v), nil
}

// cached returns the handle's completed memo value for key, if any.
func (a *Analysis) cached(key string) (any, bool) {
	a.memoMu.Lock()
	defer a.memoMu.Unlock()
	v, ok := a.memo[key]
	return v, ok
}

// publish caches v for key on this handle unless a value is already
// cached, and returns the cached one: every caller of a handle sees the
// one value its earlier callers saw.
func (a *Analysis) publish(key string, v any) any {
	a.memoMu.Lock()
	defer a.memoMu.Unlock()
	if prev, ok := a.memo[key]; ok {
		return prev
	}
	if a.memo == nil {
		a.memo = make(map[string]any)
	}
	a.memo[key] = v
	return v
}

// registry is the global version-keyed LRU of Analysis handles.
type registry struct {
	mu      sync.Mutex
	enabled bool
	cap     int
	entries map[uint64]*regEntry
	tick    uint64
}

type regEntry struct {
	an      *Analysis
	lastUse uint64
}

var global = &registry{enabled: true, cap: DefaultCapacity}

// For returns the shared Analysis handle set for c, creating it on first
// request. Two calls with the same circuit return the same handle (until
// LRU eviction); circuits with different versions never share handles,
// which is what makes rewriter output (synth, dft) unable to observe
// stale data. Safe for concurrent use.
//
// With caching disabled (SetEnabled(false)), For returns a fresh,
// unregistered handle every call — each call site then recomputes its
// analyses, which is exactly the pre-manager baseline the benchmarks
// compare against.
func For(c *circuit.Circuit) *Analysis {
	g := global
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.enabled {
		return newAnalysis(c)
	}
	g.tick++
	if e, ok := g.entries[c.Version()]; ok {
		e.lastUse = g.tick
		return e.an
	}
	if g.entries == nil {
		g.entries = make(map[uint64]*regEntry)
	}
	if len(g.entries) >= g.cap {
		g.evictOldestLocked()
	}
	a := newAnalysis(c)
	g.entries[c.Version()] = &regEntry{an: a, lastUse: g.tick}
	return a
}

// evictOldestLocked removes the least-recently-used entry. Linear scan:
// the registry is small (bounded by cap) and eviction is rare.
func (g *registry) evictOldestLocked() {
	var victim uint64
	first := true
	var oldest uint64
	for v, e := range g.entries {
		if first || e.lastUse < oldest {
			victim, oldest, first = v, e.lastUse, false
		}
	}
	if !first {
		delete(g.entries, victim)
	}
}

// Drop forgets the registered handle for c, if any. Outstanding handles
// stay usable; the next For(c) builds a fresh one.
func Drop(c *circuit.Circuit) {
	global.mu.Lock()
	defer global.mu.Unlock()
	delete(global.entries, c.Version())
}

// Reset empties the registry. Intended for tests and memory-pressure
// hooks.
func Reset() {
	global.mu.Lock()
	defer global.mu.Unlock()
	global.entries = nil
	global.tick = 0
}

// Len reports how many circuit versions are currently registered.
func Len() int {
	global.mu.Lock()
	defer global.mu.Unlock()
	return len(global.entries)
}

// SetCapacity bounds the registry to n entries (n < 1 is clamped to 1)
// and returns the previous bound, evicting LRU entries immediately if
// the registry is over the new bound.
func SetCapacity(n int) int {
	if n < 1 {
		n = 1
	}
	global.mu.Lock()
	defer global.mu.Unlock()
	prev := global.cap
	global.cap = n
	for len(global.entries) > n {
		global.evictOldestLocked()
	}
	return prev
}

// SetEnabled turns the global cache on or off and returns the previous
// state. Disabling does not clear already-registered entries (use Reset);
// it makes For hand out fresh unshared handles, restoring the
// recompute-everywhere baseline for A/B measurement.
func SetEnabled(enabled bool) bool {
	global.mu.Lock()
	defer global.mu.Unlock()
	prev := global.enabled
	global.enabled = enabled
	return prev
}
