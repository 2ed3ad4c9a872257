package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/core"
	"rdfault/internal/gen"
	"rdfault/internal/retry"
	"rdfault/internal/serve"
)

// newPool starts n loopback workers and registers teardown.
func newPool(t *testing.T, n int) *LocalPool {
	t.Helper()
	pool, err := NewLocalPool(n, serve.Config{Workers: 1, MaxConeInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// testConfig wires a coordinator to the pool with fast, deterministic
// recovery policies.
func testConfig(pool *LocalPool, sliceMS int64) Config {
	tr := &HTTPTransport{Kill: func(addr string) { pool.Kill(addr) }}
	return Config{
		Transport:       tr,
		Workers:         pool.Addrs(),
		SliceMS:         sliceMS,
		EnumWorkers:     1,
		DispatchTimeout: 30 * time.Second,
		FailThreshold:   2,
		Backoff:         retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, NoJitter: true},
		Probe:           retry.Policy{Attempts: 3, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond, NoJitter: true},
		ProbeTimeout:    time.Second,
	}
}

// assertMatchesIdentify pins the fleet's merged counters to the
// single-process run — the tentpole invariant.
func assertMatchesIdentify(t *testing.T, res *Result, ref *core.Report) {
	t.Helper()
	if res.Total.Cmp(ref.TotalLogicalPaths) != 0 {
		t.Fatalf("merged total %s, single-process %s", res.Total, ref.TotalLogicalPaths)
	}
	if res.Selected != ref.Selected {
		t.Fatalf("merged selected %d, single-process %d", res.Selected, ref.Selected)
	}
	if res.RD.Cmp(ref.RD) != 0 {
		t.Fatalf("merged RD %s, single-process %s", res.RD, ref.RD)
	}
}

func TestFleetMatchesSingleProcessAcrossWorkerCounts(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	ref, err := core.Identify(c, core.Heuristic2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var segments []int64
	for _, n := range []int{1, 2, 4} {
		pool := newPool(t, n)
		res, err := Run(context.Background(), testConfig(pool, 0), c, core.Heuristic2)
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		assertMatchesIdentify(t, res, ref)
		if res.Stats.Cones != len(c.Outputs()) {
			t.Fatalf("%d workers: %d cones, circuit has %d outputs", n, res.Stats.Cones, len(c.Outputs()))
		}
		segments = append(segments, res.Segments)
	}
	// Segments is the sharded work sum: bigger than the single-process
	// count (shared DFS prefixes are re-walked per cone) but identical
	// for every worker count.
	for i := 1; i < len(segments); i++ {
		if segments[i] != segments[0] {
			t.Fatalf("segments %v differ across worker counts", segments)
		}
	}
}

func TestFleetSliceStreamingPreservesCounters(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	ref, err := core.Identify(c, core.Heuristic2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, 2)
	res, err := Run(context.Background(), testConfig(pool, 5), c, core.Heuristic2)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
}

func TestFleetHeuristicsAgreeWithSingleProcess(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	for _, h := range []core.Heuristic{core.HeuristicFUS, core.Heuristic1, core.HeuristicPinOrder} {
		ref, err := core.Identify(c, h, core.Options{})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		pool := newPool(t, 2)
		res, err := Run(context.Background(), testConfig(pool, 0), c, h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		assertMatchesIdentify(t, res, ref)
	}
}

// A paper-example smoke check that also pins the event log's shape: a
// clean run logs exactly one dispatch and one completion per cone.
func TestFleetCleanRunEventLog(t *testing.T) {
	c := gen.PaperExample()
	pool := newPool(t, 1)
	res, err := Run(context.Background(), testConfig(pool, 0), c, core.Heuristic2)
	if err != nil {
		t.Fatal(err)
	}
	var dispatches, completes int
	for _, ev := range res.Events {
		switch ev.Kind {
		case EvDispatch:
			dispatches++
		case EvComplete:
			completes++
		}
	}
	cones := len(c.Outputs())
	if dispatches != cones || completes != cones {
		t.Fatalf("clean run logged %d dispatches, %d completions; want %d each", dispatches, completes, cones)
	}
	if res.Stats.Failures != 0 || res.Stats.DeadWorkers != 0 || res.Stats.ZombieDiscards != 0 {
		t.Fatalf("clean run reported faults: %+v", res.Stats)
	}
}

// Cones() and the per-cone dispatch must cover every output exactly
// once, in deterministic order.
func TestFleetPerConeOrderIsOutputsOrder(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	pool := newPool(t, 2)
	res, err := Run(context.Background(), testConfig(pool, 0), c, core.Heuristic1)
	if err != nil {
		t.Fatal(err)
	}
	outs := c.Outputs()
	if len(res.PerCone) != len(outs) {
		t.Fatalf("%d per-cone results for %d outputs", len(res.PerCone), len(outs))
	}
	for i, pc := range res.PerCone {
		cone, _, err := c.Cone(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if pc.Name != cone.Name() {
			t.Fatalf("per-cone[%d] is %q, want %q", i, pc.Name, cone.Name())
		}
	}
}

func TestFleetNoWorkersConfigured(t *testing.T) {
	if _, err := Run(context.Background(), Config{Transport: &HTTPTransport{}}, gen.PaperExample(), core.Heuristic1); err == nil {
		t.Fatal("Run accepted an empty worker list")
	}
}

// TestFleetSortHonoursDeadline: the coordinator's Heuristic 2 sort runs
// under Run's context. On the c5315 analogue, whose two sort passes take
// about 0.4 s, a 1 ms deadline ends the run with a typed deadline error
// long before the passes would finish, and no sort is left cached for
// the next run to reuse.
func TestFleetSortHonoursDeadline(t *testing.T) {
	c := gen.ALUPipeline(12, gen.XorAOI) // c5315 analogue
	defer analysis.Drop(c)
	pool := newPool(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, testConfig(pool, 0), c, core.Heuristic2)
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("Run under a 1 ms deadline: err = %v, want core.ErrDeadline", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("Run took %v to honour a 1 ms deadline", elapsed)
	}
	// Memo caches successes only, so an f that fails runs exactly when
	// no sort passes were cached under their memo key.
	errNotCached := errors.New("not cached")
	if _, err := analysis.For(c).Memo("core.heu2passes", func() (any, error) { return nil, errNotCached }); err != errNotCached {
		t.Fatalf("an interrupted sort was cached (Memo returned %v)", err)
	}
}
