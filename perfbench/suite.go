package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/gen"
)

// suite-cold: the paper's Table II workload. Heuristic 2 identification
// of the nine ISCAS85 analogues, one circuit per job, each parsed from
// its netlist text as a command-line call would, so every job pays for
// its own input sort.

const (
	suiteWorkers = 2
	// suiteSetups is how many times a run repeats its set-up; setup_s is
	// the median.
	suiteSetups = 25
)

// counters are the answer every path of the program must agree on.
type counters struct {
	Selected int64  `json:"selected"`
	RD       string `json:"rd"`
	Total    string `json:"total"`
}

func (c counters) check(selected int64, rd, total *big.Int) error {
	if rd == nil || total == nil {
		return fmt.Errorf("incomplete answer")
	}
	if got := (counters{selected, rd.String(), total.String()}); got != c {
		return fmt.Errorf("counters %+v, want %+v", got, c)
	}
	return nil
}

//go:embed golden_suite.json
var goldenSuiteJSON []byte

// suiteParams sizes the workload; tests shrink it.
type suiteParams struct {
	// circuits names the suite members to run (paper names); nil runs
	// all nine.
	circuits             []string
	minRounds, maxRounds int
}

// A run makes at least two passes over the suite: one job of a circuit
// varied by up to 17% between back-to-back runs on 2 vCPUs.
func runSuite(cfg runConfig) (*report, error) {
	return suiteRun(cfg, suiteParams{minRounds: 2, maxRounds: 64})
}

type netlist struct{ name, bench string }

// suiteNetlists generates the suite and writes each member as .bench text.
func suiteNetlists(only []string) ([]netlist, error) {
	var out []netlist
	for _, n := range gen.ISCAS85Suite() {
		if only != nil && !slices.Contains(only, n.Paper) {
			continue
		}
		var b bytes.Buffer
		if err := circuit.WriteBench(&b, n.C); err != nil {
			return nil, err
		}
		out = append(out, netlist{n.Paper, b.String()})
	}
	return out, nil
}

// suiteJobs is the job list: each round is one seeded shuffle of the
// suite.
func suiteJobs(seed int64, n, rounds int) []int {
	rng := rand.New(rand.NewSource(seed))
	var jobs []int
	for r := 0; r < rounds; r++ {
		jobs = append(jobs, rng.Perm(n)...)
	}
	return jobs
}

func suiteRun(cfg runConfig, p suiteParams) (*report, error) {
	golden := map[string]counters{}
	if err := json.Unmarshal(goldenSuiteJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden counters: %w", err)
	}
	rep := &report{}
	var nets []netlist
	err := rep.setUp(cfg.cal, suiteSetups, func() (time.Duration, error) {
		return timed(func() (err error) {
			nets, err = suiteNetlists(p.circuits)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	jobs := suiteJobs(cfg.seed, len(nets), p.maxRounds)

	identify := func(_, i int) jobRecord {
		nl := nets[jobs[i]]
		rec := jobRecord{class: nl.name}
		t0 := time.Now()
		rec.err = func() error {
			c, err := circuit.ParseBench(nl.name, strings.NewReader(nl.bench))
			if err != nil {
				return err
			}
			r, err := core.Identify(c, core.Heuristic2, core.Options{Workers: suiteWorkers})
			if err != nil {
				return err
			}
			return golden[nl.name].check(r.Selected, r.RD, r.TotalLogicalPaths)
		}()
		rec.latency = time.Since(t0)
		return rec
	}
	d := startPhase(cfg, len(jobs), len(nets), p.minRounds, cfg.trace)
	rep.jobs, rep.wall = closedLoop(1, d, identify)
	rep.peakRSS, rep.phaseScale = d.prefixRSS, d.scale()
	if !cfg.trace {
		return rep, nil
	}

	// Traced phase: the same rounds, with Identify split into its layer
	// calls so each gets a span, under a CPU profile.
	tr := newTracer()
	var acc suiteLayers
	var wall time.Duration
	d = startPhase(cfg, len(jobs), len(nets), p.minRounds, true)
	share, err := profiled(func() error {
		rep.traced, wall = closedLoop(1, d, func(_, i int) jobRecord {
			nl := nets[jobs[i]]
			rec := jobRecord{class: nl.name}
			t0 := time.Now()
			res, err := acc.identify(tr, i, nl)
			if err == nil {
				err = golden[nl.name].check(res.Selected, res.RD, res.Total)
			}
			rec.err, rec.latency = err, time.Since(t0)
			return rec
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.spans = tr.snapshot()
	rep.layer = acc.metrics()
	rep.layer["logic.cpu_share"] = share
	rep.layer["trace.overhead_ratio"] = float64(len(rep.traced)) / wall.Seconds() / rep.unscaled()["jobs_per_s"]
	addSelfMetrics(rep.layer, rep.spans)
	return rep, nil
}

// profiled runs f under a CPU profile and returns the share of samples
// in the implication engine's package.
func profiled(f func() error) (float64, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return 0, err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return 0, err
	}
	share, err := packageShare(prof.Bytes(), "rdfault/internal/logic.")
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	return share, nil
}

// layeredReferences computes the single-process reference of every
// distinct netlist in nets with Identify split into its layer calls,
// spanned under job ids from firstJob on and profiled. It returns the
// references and the engine layers' metrics.
func layeredReferences(tr *tracer, nets []netlist, firstJob int) (map[string]reference, map[string]float64, error) {
	refs := map[string]reference{}
	var acc suiteLayers
	share, err := profiled(func() error {
		for _, nl := range nets {
			if _, ok := refs[nl.bench]; ok {
				continue
			}
			res, err := acc.identify(tr, firstJob+len(refs), nl)
			if err != nil {
				return err
			}
			if res.RD == nil {
				return fmt.Errorf("reference run of %s ended %v", nl.name, res.Status)
			}
			refs[nl.bench] = reference{counters{res.Selected, res.RD.String(), res.Total.String()}, res.Segments}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m := acc.metrics()
	m["logic.cpu_share"] = share
	return refs, m, nil
}

// suiteLayers accumulates the traced phase's layer timings and counts.
type suiteLayers struct {
	parse, paths, sort, enum       time.Duration
	cpu                            time.Duration
	segments, sortSegments, pruned int64
}

// identify is core.Identify with Heuristic 2, one span per layer call.
// It returns the final pass.
func (a *suiteLayers) identify(tr *tracer, job int, nl netlist) (*core.Result, error) {
	root := tr.begin(job, 0, "bench.job")
	defer tr.end(root)

	var c *circuit.Circuit
	sp := tr.begin(job, root, "circuit.parse")
	d, err := timed(func() (err error) {
		if c, err = circuit.ParseBench(nl.name, strings.NewReader(nl.bench)); err == nil {
			c.Flat()
		}
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	a.parse += d

	sp = tr.begin(job, root, "analysis.paths")
	d, _ = timed(func() error { analysis.For(c).Logical(); return nil })
	tr.end(sp)
	a.paths += d

	cpu0 := cpuTime()
	var s circuit.InputSort
	var fsRes, tRes *core.Result
	sp = tr.begin(job, root, "core.sort")
	d, err = timed(func() (err error) {
		s, fsRes, tRes, err = core.Heuristic2SortWorkers(c, suiteWorkers)
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	a.sort += d

	var res *core.Result
	sp = tr.begin(job, root, "core.enum")
	d, err = timed(func() (err error) {
		res, err = core.Enumerate(c, core.SigmaPi, core.Options{Sort: &s, Workers: suiteWorkers})
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	a.enum += d
	a.cpu += cpuTime() - cpu0
	a.segments += res.Segments
	a.sortSegments += fsRes.Segments + tRes.Segments
	a.pruned += res.Pruned + fsRes.Pruned + tRes.Pruned
	return res, nil
}

func (a *suiteLayers) metrics() map[string]float64 {
	work := a.sort + a.enum
	all := a.segments + a.sortSegments
	return map[string]float64{
		"circuit.parse_s":     a.parse.Seconds(),
		"analysis.paths_s":    a.paths.Seconds(),
		"core.sort_s":         a.sort.Seconds(),
		"core.enum_s":         a.enum.Seconds(),
		"core.sort_share":     a.sort.Seconds() / work.Seconds(),
		"core.segments":       float64(a.segments),
		"core.sort_segments":  float64(a.sortSegments),
		"core.ns_per_segment": float64(work.Nanoseconds()) / float64(all),
		"core.pruned_frac":    float64(a.pruned) / float64(all),
		"core.cpu_util":       a.cpu.Seconds() / (work.Seconds() * suiteWorkers),
	}
}
