package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// exactCounts are the per-layer metrics that must repeat bit-for-bit
// for one seed: a drift is a bug (say, a store race turning a delta into
// a miss), not noise.
var exactCounts = []string{
	"core.segments", "core.sort_segments",
	"store.hit_frac", "store.delta_frac", "store.miss_frac", "store.cones_reused_frac", "serve.shed",
	"journal.records", "fleet.segment_tax",
}

// shortRuns are one small traced run per workload, each running exactly
// its minimum rounds.
var shortRuns = map[string]func(runConfig) (*report, error){
	"suite-cold": func(cfg runConfig) (*report, error) {
		return suiteRun(cfg, suiteParams{circuits: []string{"c432", "c880", "c5315"}, minRounds: 1, maxRounds: 1})
	},
	"eco-http": func(cfg runConfig) (*report, error) {
		return ecoRun(cfg, ecoParams{randomBases: 1, variants: 2, hits: 8, edits: 3, fresh: 3, minRounds: 2, maxRounds: 2})
	},
	"fleet-jnl": func(cfg runConfig) (*report, error) {
		return fleetRun(cfg, fleetParams{c432: 1, c880: 1, c5315: 1, random: 3, minRounds: 1, maxRounds: 1})
	},
}

func TestExactCountsRepeat(t *testing.T) {
	for name, run := range shortRuns {
		t.Run(name, func(t *testing.T) {
			var first map[string]float64
			for i := 0; i < 2; i++ {
				rep, err := run(runConfig{seed: 7, trace: true, work: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed() != 0 || rep.checkErr != nil {
					t.Fatalf("run %d: %d of %d jobs failed, check: %v", i, rep.failed(), rep.attempted(), rep.checkErr)
				}
				counts := map[string]float64{}
				for _, k := range exactCounts {
					counts[k] = rep.layer[k]
				}
				if i == 0 {
					first = counts
					continue
				}
				if !reflect.DeepEqual(first, counts) {
					t.Errorf("exact counts drifted between runs of one seed:\n first %v\nsecond %v", first, counts)
				}
			}
			t.Logf("exact counts: %v", first)
		})
	}
}

func TestSeedChangesJobList(t *testing.T) {
	if reflect.DeepEqual(suiteJobs(1, 9, 2), suiteJobs(2, 9, 2)) {
		t.Error("suite-cold: seeds 1 and 2 give the same job order")
	}
	p := ecoParams{randomBases: 1, variants: 1, hits: 4, edits: 1, fresh: 1, minRounds: 1, maxRounds: 1}
	var eco [2][]ecoJob
	for i := range eco {
		s, err := ecoPrepare(int64(i+1), p, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eco[i] = s.jobs
	}
	if reflect.DeepEqual(eco[0], eco[1]) {
		t.Error("eco-http: seeds 1 and 2 give the same job list")
	}
	var fl [2][]netlist
	for i := range fl {
		s, err := fleetPrepare(int64(i+1), fleetParams{c432: 1, random: 2, minRounds: 1, maxRounds: 1}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.pool.Close()
		fl[i] = s.jobs
	}
	if reflect.DeepEqual(fl[0], fl[1]) {
		t.Error("fleet-jnl: seeds 1 and 2 give the same job list")
	}
}

func TestBudgetGuard(t *testing.T) {
	for _, w := range workloads {
		if err := checkBudget(w, 2); err != nil {
			t.Errorf("%s does not fit 2 CPUs: %v", w.name, err)
		}
	}
	if checkBudget(workload{name: "x", busy: 4, conns: 2}, 2) == nil {
		t.Error("4 enumeration goroutines on 2 CPUs were allowed")
	}
	if checkBudget(workload{name: "x", busy: 2, conns: 3}, 2) == nil {
		t.Error("3 connections on 2 CPUs were allowed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "core.sort", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "core.enum", Start: 3, End: 6},
		{ID: 4, Parent: 3, Name: "store.identify", Start: 5, End: 8}, // clipped to its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 5, "core": 5, "store": 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCalibratorScale(t *testing.T) {
	var none *calibrator
	if got := none.scale(0); got != 1 {
		t.Errorf("nil calibrator scale = %v, want 1", got)
	}
	c := &calibrator{speeds: []float64{1e-9, 1e9}}
	for i := 0; i < 8; i++ {
		c.speeds = append(c.speeds, 1.5/2, 1.5*2)
	}
	// The outliers are the lowest and highest tenth, and the geometric
	// mean of x/2 and 2x is x.
	if got := c.scale(0); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("scale = %v, want 1.5", got)
	}
	if got := c.scale(len(c.speeds)); got != 1 {
		t.Errorf("scale with no samples since the mark = %v, want 1", got)
	}
}

// TestDealerCalibratesBetweenJobs checks that a calibrated phase samples
// the host with no job in flight, and leaves the sample out of its wall
// time.
func TestDealerCalibratesBetweenJobs(t *testing.T) {
	cal, err := newCalibrator(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	d := &dealer{n: 40, roundSize: 4, minRounds: 10, cal: cal}
	var overlap atomic.Int64
	t0 := time.Now()
	recs, wall := closedLoop(2, d, func(_, i int) jobRecord {
		n := cal.mark()
		time.Sleep(2 * time.Millisecond)
		if cal.mark() != n {
			overlap.Add(1)
		}
		return jobRecord{latency: time.Millisecond}
	})
	elapsed := time.Since(t0)
	if len(recs) != 40 {
		t.Fatalf("ran %d jobs, want 40", len(recs))
	}
	if cal.mark() == 0 {
		t.Fatal("no calibration sample was taken")
	}
	if overlap.Load() != 0 {
		t.Errorf("%d jobs were in flight during a sample", overlap.Load())
	}
	if elapsed-wall < 2*calSlice {
		t.Errorf("wall %v of %v elapsed: the %v sample was not left out", wall, elapsed, 2*calSlice)
	}
	if err := cal.failure(); err != nil {
		t.Error(err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the benchmark reports %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
