package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rdfault/internal/core"
	"rdfault/internal/fleet"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/serve"
)

// fleet-jnl: distributed identification with the write-ahead journal on.
// fleet.Run with Heuristic 2 shards each job by output cone over a local
// pool of two workers, through the HTTP transport, and journals every
// decision to a fresh journal per job. There is no store.

const (
	fleetPool        = 2
	fleetEnumWorkers = 1
	// fleetSetups is how many times a run sets up: a set-up takes a few
	// milliseconds and single ones vary by half.
	fleetSetups = 45
)

// fleetParams sizes the workload; tests shrink it.
type fleetParams struct {
	// Jobs per round, by circuit; random is the number of distinct
	// random circuits, each run once per round.
	c432, c880, c5315, random int
	minRounds, maxRounds      int
}

// A round of 26 jobs sorts, by latency, into c432 (8 jobs), c880 (10),
// the random circuits (4) and c5315 (4), whose blocks span 0-31%,
// 31-69%, 69-85% and 85-100% of the jobs. p50 then falls in the middle of
// the c880 block and p90 inside the c5315 block. With one job per
// circuit of a 14-circuit family instead, both percentiles fell on the
// boundary between two circuits' blocks and p50 spread by a quarter
// over ten runs.
var fleetDefaults = fleetParams{c432: 8, c880: 10, c5315: 4, random: 4, minRounds: 4, maxRounds: 60}

// fleetFamilySeed generates the random circuits. They are the same for
// every --seed, which orders the jobs: with a pool of 14 circuits drawn
// from --seed, the draw alone moved jobs_per_s by a fifth from seed to
// seed, so a run would have measured the seed rather than the program.
const fleetFamilySeed = 20250611

func (p fleetParams) roundSize() int { return p.c432 + p.c880 + p.c5315 + p.random }

type fleetSetup struct {
	jobs []netlist
	pool *fleet.LocalPool
}

// fleetPrepare builds the job list and starts the pool, whose workers
// spill evicted jobs' checkpoints to spill.
func fleetPrepare(seed int64, p fleetParams, spill string) (*fleetSetup, error) {
	rng := rand.New(rand.NewSource(seed))
	iscas, err := suiteNetlists([]string{"c432", "c880", "c5315"})
	if err != nil {
		return nil, err
	}
	family := rand.New(rand.NewSource(fleetFamilySeed))
	var randoms []netlist
	for i := 0; i < p.random; i++ {
		name := fmt.Sprintf("r%d", i)
		text, err := benchText(randomCircuit(name, i, p.random, family))
		if err != nil {
			return nil, err
		}
		randoms = append(randoms, netlist{name, text})
	}
	s := &fleetSetup{}
	for r := 0; r < p.maxRounds; r++ {
		var round []netlist
		for k, n := range []int{p.c432, p.c880, p.c5315} {
			for i := 0; i < n; i++ {
				round = append(round, iscas[k])
			}
		}
		round = append(round, randoms...)
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		s.jobs = append(s.jobs, round...)
	}
	s.pool, err = fleet.NewLocalPool(fleetPool, serve.Config{Workers: fleetEnumWorkers, SpillDir: spill})
	return s, err
}

// fleetJob is what one fleet.Run reported, seen from outside.
type fleetJob struct {
	res           *fleet.Result
	records       uint64
	bytes         int64
	start, end    time.Time
	firstDispatch time.Time
	lastComplete  time.Time
	dispatched    map[string]time.Time
	completed     map[string]time.Time
	reappend      time.Duration
}

// fleetRunner runs jobs against one pool.
type fleetRunner struct {
	s    *fleetSetup
	tp   *fleet.HTTPTransport
	work string
	tr   *tracer
	// out holds each job's report, by job index.
	out []*fleetJob
}

func newFleetRunner(s *fleetSetup, work string, tr *tracer) *fleetRunner {
	// One connection per worker: at most one dispatch is in flight to
	// each, so two connections in all.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &fleetRunner{s: s, tp: &fleet.HTTPTransport{Client: hc}, work: work, tr: tr, out: make([]*fleetJob, len(s.jobs))}
}

func (f *fleetRunner) close() { f.tp.Client.CloseIdleConnections() }

func (f *fleetRunner) run(i int) error {
	nl := f.s.jobs[i]
	tr := f.tr
	root := tr.begin(i, 0, "bench.job")
	defer tr.end(root)
	sp := tr.begin(i, root, "circuit.parse")
	c, err := parse(nl.name, nl.bench)
	tr.end(sp)
	if err != nil {
		return err
	}
	dir := filepath.Join(f.work, fmt.Sprintf("job%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal")
	sp = tr.begin(i, root, "journal.create")
	jw, err := journal.Create(path, 1, nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer jw.Close()

	j := &fleetJob{dispatched: map[string]time.Time{}, completed: map[string]time.Time{}}
	cfg := fleet.Config{Transport: f.tp, Workers: f.s.pool.Addrs(), EnumWorkers: fleetEnumWorkers, Journal: jw}
	if tr != nil {
		var mu sync.Mutex
		cfg.OnEvent = func(e fleet.Event) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			switch e.Kind {
			case fleet.EvDispatch:
				if j.firstDispatch.IsZero() {
					j.firstDispatch = now
				}
				j.dispatched[e.Cone] = now
			case fleet.EvComplete:
				j.lastComplete = now
				j.completed[e.Cone] = now
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	run := tr.begin(i, root, "fleet.run")
	j.start = time.Now()
	j.res, err = fleet.Run(ctx, cfg, c, core.Heuristic2)
	j.end = time.Now()
	tr.end(run)
	if err != nil {
		return err
	}
	j.records, j.bytes = jw.Seq(), jw.Bytes()
	f.out[i] = j
	if tr == nil {
		return nil
	}

	// Spans the coordinator's events delimit: the serial part before the
	// first dispatch (global sort, cone build, admission), each cone's
	// round trip through a worker's cone lane, and the merge after the
	// last answer.
	if !j.firstDispatch.IsZero() {
		tr.add(i, run, "fleet.coord", j.start, j.firstDispatch)
		for cone, t0 := range j.dispatched {
			if t1, ok := j.completed[cone]; ok {
				tr.add(i, run, "serve.cone", t0, t1)
			}
		}
		tr.add(i, run, "fleet.merge", j.lastComplete, j.end)
	}
	// Re-append the job's journal through a fresh writer: the cost of
	// its appends, fsync included, without the rest of the run.
	recs, err := journal.ReadFile(path)
	if err != nil {
		return err
	}
	sp = tr.begin(i, root, "journal.append")
	j.reappend, err = timed(func() error {
		w, err := journal.Create(path+".again", 1, nil)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := w.Append(r.Kind, r.Payload); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	})
	tr.end(sp)
	return err
}

func runFleet(cfg runConfig) (*report, error) { return fleetRun(cfg, fleetDefaults) }

func fleetRun(cfg runConfig, p fleetParams) (*report, error) {
	rep := &report{}
	var s *fleetSetup
	err := rep.setUp(cfg.cal, fleetSetups, func() (time.Duration, error) {
		if s != nil {
			s.pool.Close()
		}
		return timed(func() (err error) {
			s, err = fleetPrepare(cfg.seed, p, cfg.work)
			return err
		})
	})
	if s != nil {
		defer s.pool.Close()
	}
	if err != nil {
		return nil, err
	}

	phase := func(fixed bool, tr *tracer) (*fleetRunner, []jobRecord, time.Duration) {
		f := newFleetRunner(s, cfg.work, tr)
		defer f.close()
		d := startPhase(cfg, len(s.jobs), p.roundSize(), p.minRounds, fixed)
		recs, wall := closedLoop(1, d, func(_, i int) jobRecord {
			rec := jobRecord{class: s.jobs[i].name}
			t0 := time.Now()
			rec.err = f.run(i)
			rec.latency = time.Since(t0)
			return rec
		})
		if tr == nil {
			rep.peakRSS, rep.phaseScale = d.prefixRSS, d.scale()
		}
		return f, recs, wall
	}
	untraced, recs, wall := phase(cfg.trace, nil)
	rep.jobs, rep.wall = recs, wall
	runners := []*fleetRunner{untraced}
	var traced *fleetRunner
	var tracedWall time.Duration
	tr := newTracer()
	if cfg.trace {
		traced, rep.traced, tracedWall = phase(true, tr)
		runners = append(runners, traced)
	}

	// The single-process references; a traced run computes them layer by
	// layer, which is where it measures the engine layers.
	n := max(len(rep.jobs), len(rep.traced))
	var refs map[string]reference
	var engine map[string]float64
	if cfg.trace {
		refs, engine, err = layeredReferences(tr, s.jobs[:n], len(s.jobs))
	} else {
		refs, err = references(s.jobs[:n], func(nl netlist) netlist { return nl }, core.Heuristic2, 2, 1)
	}
	if err != nil {
		return nil, err
	}
	for k, f := range runners {
		recs := rep.jobs
		if k == 1 {
			recs = rep.traced
		}
		for i := range recs {
			if recs[i].err != nil {
				continue
			}
			r := f.out[i].res
			want := refs[s.jobs[i].bench]
			if got := (counters{r.Selected, r.RD.String(), r.Total.String()}); got != want.counters {
				recs[i].err = fmt.Errorf("job %d (%s): counters %+v, single-process %+v", i, s.jobs[i].name, got, want.counters)
			}
		}
	}
	if !cfg.trace {
		return rep, nil
	}
	rep.spans = tr.snapshot()
	rep.layer = fleetLayerMetrics(s, traced, len(rep.traced), refs)
	for k, v := range engine {
		rep.layer[k] = v
	}
	rep.layer["trace.overhead_ratio"] = (float64(len(rep.traced)) / tracedWall.Seconds()) / (float64(len(rep.jobs)) / rep.wall.Seconds())
	addSelfMetrics(rep.layer, rep.spans)
	return rep, nil
}

func fleetLayerMetrics(s *fleetSetup, f *fleetRunner, n int, refs map[string]reference) map[string]float64 {
	var serial, wall, busy float64
	var fanout, merge, rtt, overhead, reappend []float64
	var segs, singleSegs int64
	var records, bytes float64
	for i := 0; i < n; i++ {
		j := f.out[i]
		if j == nil {
			continue
		}
		jw := j.end.Sub(j.start).Seconds()
		wall += jw
		serial += j.firstDispatch.Sub(j.start).Seconds()
		fanout = append(fanout, j.lastComplete.Sub(j.firstDispatch).Seconds())
		merge = append(merge, j.end.Sub(j.lastComplete).Seconds())
		for _, pc := range j.res.PerCone {
			d := float64(pc.Answer.DurationMS) / 1e3
			busy += d
			t0, ok0 := j.dispatched[pc.Name]
			t1, ok1 := j.completed[pc.Name]
			if ok0 && ok1 {
				rtt = append(rtt, t1.Sub(t0).Seconds())
				overhead = append(overhead, t1.Sub(t0).Seconds()-d)
			}
		}
		segs += j.res.Segments
		singleSegs += refs[s.jobs[i].bench].segments
		records += float64(j.records)
		bytes += float64(j.bytes)
		reappend = append(reappend, j.reappend.Seconds())
	}
	return map[string]float64{
		"fleet.coord_serial_share":  serial / wall,
		"fleet.fanout_s":            median(fanout),
		"fleet.merge_s":             median(merge),
		"fleet.cone_rtt_p50_s":      median(rtt),
		"fleet.cone_overhead_p50_s": median(overhead),
		"fleet.worker_idle_frac":    1 - busy/(fleetPool*wall),
		"fleet.segment_tax":         float64(segs) / float64(singleSegs),
		"journal.records":           records,
		"journal.bytes":             bytes,
		"journal.append_s":          median(reappend),
	}
}
