package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/gen"
	"rdfault/internal/serve"
	"rdfault/internal/store"
	"rdfault/internal/synth"
)

// eco-http: ECO traffic through the service and the result store. An
// in-process serve.Server behind its HTTP handler on loopback, its store
// warmed with the bases, answers two closed-loop clients. Each job is a
// relabelled base (a store hit), a one-cone edit of a base (a delta) or
// a fresh random circuit (a miss). The job list is built so that no job
// depends on another: every job's outcome is fixed by the seed.

const (
	ecoMaxInFlight = 2
	ecoWorkers     = 1
	ecoClients     = 2
	ecoSetups      = 2
)

// ecoParams sizes the workload; tests shrink it.
type ecoParams struct {
	// randomBases are seeded random circuits warmed next to c432, c880
	// and c5315.
	randomBases int
	// variants is the number of relabelled copies per base that hits
	// draw from.
	variants int
	// Per round: hits (spread over the bases in turn), one-cone edits
	// and fresh circuits.
	hits, edits, fresh   int
	minRounds, maxRounds int
}

// A round is 14 hits, 3 edits and 3 fresh circuits. Hits take the lowest
// 70% of latencies, so p50 falls well inside the hits and p90 inside the
// edits and fresh circuits, away from the boundary between them.
var ecoDefaults = ecoParams{randomBases: 3, variants: 3, hits: 14, edits: 3, fresh: 3, minRounds: 5, maxRounds: 100}

func (p ecoParams) roundSize() int { return p.hits + p.edits + p.fresh }

// ecoJob is one submission and the store outcome it must get.
type ecoJob struct {
	class       string // "hit", "delta" or "miss"
	name, bench string
}

// randomCircuit draws a 24-input random circuit whose gate count lies in
// stratum k of n over [150, 400), so every job list spans the range
// evenly.
func randomCircuit(name string, k, n int, rng *rand.Rand) *circuit.Circuit {
	lo, hi := 150+250*k/n, 150+250*(k+1)/n
	opt := gen.RandomOptions{Inputs: 24, Gates: lo + rng.Intn(hi-lo), Outputs: 8}
	return gen.RandomCircuit(name, opt, rng.Int63())
}

func benchText(c *circuit.Circuit) (string, error) {
	var b bytes.Buffer
	err := circuit.WriteBench(&b, c)
	return b.String(), err
}

func parse(name, bench string) (*circuit.Circuit, error) {
	return circuit.ParseBench(name, strings.NewReader(bench))
}

// coneKeys lists c's store cone keys under Heuristic 1, in the order
// store.IdentifyThrough visits them.
func coneKeys(c *circuit.Circuit) ([]string, error) {
	s := core.Heuristic1Sort(c)
	var keys []string
	for _, po := range c.Outputs() {
		cone, mapping, err := c.Cone(po)
		if err != nil {
			return nil, err
		}
		p := s.Cone(mapping)
		keys = append(keys, store.ConeKey(cone, &p, core.SigmaPi))
	}
	return keys, nil
}

// ecoGen builds the job list against the warmed store's contents.
type ecoGen struct {
	warm     map[string]bool // cone keys of the warmed bases
	baseFunc map[string]bool // function hashes of the bases
	// claimed holds the cone keys and function hashes an accepted job
	// will write; a later job touching one would depend on it.
	claimed map[string]bool
	n       int
}

// candidate is a circuit drawn for the job list, as the server will
// parse it.
type candidate struct {
	c     *circuit.Circuit
	text  string
	fh    string
	fresh []string
	// class is the outcome the store will report: "delta" when some cone
	// is reused from the warmed bases, "miss" when none is.
	class string
}

// evaluate replays the store's decision for cd without touching the
// store. It reports whether cd is usable: not a hit, and writing no
// function hash or cone key that a base or an accepted job owns.
// Function-preserving edits are never usable: they would overwrite their
// base's run record.
func (g *ecoGen) evaluate(cd *candidate) (bool, error) {
	fh, _, err := store.HashFor(cd.c)
	if err != nil || g.baseFunc[fh] || g.claimed[fh] {
		return false, err
	}
	keys, err := coneKeys(cd.c)
	if err != nil {
		return false, err
	}
	seen := map[string]bool{}
	reused := 0
	for _, k := range keys {
		switch {
		case g.warm[k] || seen[k]:
			reused++
		case g.claimed[k]:
			return false, nil
		default:
			seen[k] = true
			cd.fresh = append(cd.fresh, k)
		}
	}
	if len(cd.fresh) == 0 {
		return false, nil
	}
	cd.fh, cd.class = fh, "miss"
	if reused > 0 {
		cd.class = "delta"
	}
	return true, nil
}

// draw returns the first usable circuit next yields and claims what it
// will write.
func (g *ecoGen) draw(kind string, next func() (*circuit.Circuit, error)) (ecoJob, error) {
	for attempt := 0; attempt < 500; attempt++ {
		c, err := next()
		if err != nil {
			continue // e.g. an edit that found no editable gate
		}
		cd := &candidate{}
		if cd.text, err = benchText(c); err != nil {
			return ecoJob{}, err
		}
		if cd.c, err = parse(c.Name(), cd.text); err != nil {
			return ecoJob{}, err
		}
		ok, err := g.evaluate(cd)
		if err != nil {
			return ecoJob{}, err
		}
		if !ok {
			continue
		}
		g.claimed[cd.fh] = true
		for _, k := range cd.fresh {
			g.claimed[k] = true
		}
		g.n++
		return ecoJob{class: cd.class, name: fmt.Sprintf("%s-%d", kind, g.n), bench: cd.text}, nil
	}
	return ecoJob{}, fmt.Errorf("no independent %s job after 500 draws", kind)
}

// ecoSetup is a warmed store plus the job list built against it.
type ecoSetup struct {
	dir       string
	jobs      []ecoJob
	roundSize int
}

// ecoFamilySeed generates the random bases and the stream the edits and
// the fresh circuits are drawn from, the same for every --seed. The seed
// picks the relabellings and the order of the jobs. With edits drawn
// from --seed instead, the cost of a run's few hundred deltas moved from
// seed to seed (one cone of c5315 is a much larger re-enumeration than
// another), and jobs_per_s with it.
const ecoFamilySeed = 20250612

func ecoPrepare(seed int64, p ecoParams, dir string) (*ecoSetup, error) {
	rng := rand.New(rand.NewSource(seed))
	family := rand.New(rand.NewSource(ecoFamilySeed))
	nets, err := suiteNetlists([]string{"c432", "c880", "c5315"})
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.randomBases; i++ {
		text, err := benchText(randomCircuit(fmt.Sprintf("rb%d", i), i, p.randomBases, family))
		if err != nil {
			return nil, err
		}
		nets = append(nets, netlist{fmt.Sprintf("rb%d", i), text})
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	g := &ecoGen{warm: map[string]bool{}, baseFunc: map[string]bool{}, claimed: map[string]bool{}}
	var bases []*circuit.Circuit
	hits := make([][]ecoJob, len(nets))
	for i, nl := range nets {
		c, err := parse(nl.name, nl.bench)
		if err != nil {
			return nil, err
		}
		res, err := store.IdentifyThrough(st, c, store.Options{Heuristic: core.Heuristic1, Workers: ecoWorkers})
		if err != nil {
			return nil, fmt.Errorf("warming %s: %w", nl.name, err)
		}
		for _, pc := range res.PerCone {
			g.warm[pc.Key] = true
		}
		fh, sh, err := store.HashFor(c)
		if err != nil {
			return nil, err
		}
		g.baseFunc[fh] = true
		bases = append(bases, c)
		for v := 0; v < p.variants; v++ {
			rc, _, err := synth.Relabel(c, rng.Int63())
			if err != nil {
				return nil, err
			}
			text, err := benchText(rc)
			if err != nil {
				return nil, err
			}
			pc, err := parse(rc.Name(), text)
			if err != nil {
				return nil, err
			}
			if rfh, rsh, err := store.HashFor(pc); err != nil || rfh != fh || rsh != sh {
				return nil, fmt.Errorf("relabelled %s is not a store hit (%v)", nl.name, err)
			}
			hits[i] = append(hits[i], ecoJob{class: "hit", name: fmt.Sprintf("%s-v%d", nl.name, v), bench: text})
		}
	}

	s := &ecoSetup{dir: dir, roundSize: p.roundSize()}
	for r := 0; r < p.maxRounds; r++ {
		var round []ecoJob
		for h := 0; h < p.hits; h++ {
			round = append(round, hits[h%len(bases)][rng.Intn(p.variants)])
		}
		for k := 0; k < p.edits; k++ {
			base := bases[(r*p.edits+k)%len(bases)]
			j, err := g.draw("edit", func() (*circuit.Circuit, error) {
				m, _, err := store.MutateKCones(base, 1, family.Int63())
				return m, err
			})
			if err != nil {
				return nil, err
			}
			round = append(round, j)
		}
		for k := 0; k < p.fresh; k++ {
			j, err := g.draw("fresh", func() (*circuit.Circuit, error) {
				return randomCircuit(fmt.Sprintf("m%d-%d", r, k), k, p.fresh, family), nil
			})
			if err != nil {
				return nil, err
			}
			round = append(round, j)
		}
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		s.jobs = append(s.jobs, round...)
	}
	return s, nil
}

// ecoServer is a serve.Server on its own store, behind its HTTP handler
// on a loopback port.
type ecoServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startEcoServer serves the store in dir; the server spills evicted jobs'
// checkpoints to spill.
func startEcoServer(dir, spill string) (*ecoServer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{MaxInFlight: ecoMaxInFlight, Workers: ecoWorkers, Store: st, SpillDir: spill})
	s := &ecoServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *ecoServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Close()
}

// ecoClient is one closed-loop client holding one connection.
type ecoClient struct {
	url string
	hc  *http.Client
}

func newEcoClient(url string) *ecoClient {
	return &ecoClient{url: url, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

var errShed = errors.New("shed with 429")

// call sends one request and decodes a 2xx JSON reply into v.
func (cl *ecoClient) call(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, cl.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return errShed
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// awaitDone reads the job's event stream up to its "done" frame.
func (cl *ecoClient) awaitDone(id string) error {
	resp, err := cl.hc.Get(cl.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			var info serve.Info
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &info); err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body) // let the connection be reused
			if info.State == serve.StateFailed {
				return fmt.Errorf("job %s failed: %s", id, info.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events of job %s ended without a done frame", id)
}

// identify submits one job, follows its events to the end and fetches
// the answer, with a span per HTTP exchange.
func (cl *ecoClient) identify(tr *tracer, job, root int, j ecoJob) (*serve.Answer, error) {
	body, err := json.Marshal(map[string]string{"bench": j.bench, "name": j.name, "heuristic": "heu1"})
	if err != nil {
		return nil, err
	}
	var info serve.Info
	sp := tr.begin(job, root, "serve.submit")
	err = cl.call(http.MethodPost, "/v1/jobs", body, &info)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(job, root, "serve.stream")
	err = cl.awaitDone(info.ID)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var ans serve.Answer
	sp = tr.begin(job, root, "serve.result")
	err = cl.call(http.MethodGet, "/v1/jobs/"+info.ID+"/result", nil, &ans)
	tr.end(sp)
	return &ans, err
}

// ecoPhaseResult is one timed phase against one server.
type ecoPhaseResult struct {
	recs    []jobRecord
	answers []*serve.Answer
	wall    time.Duration
	shed    int64
	// reusedCones and freshCones come from the server's /metrics.
	reusedCones, freshCones float64
}

func ecoPhase(srv *ecoServer, s *ecoSetup, d *dealer, tr *tracer) (*ecoPhaseResult, error) {
	var clients []*ecoClient
	for i := 0; i < ecoClients; i++ {
		clients = append(clients, newEcoClient(srv.url))
	}
	defer func() {
		for _, cl := range clients {
			cl.hc.CloseIdleConnections()
		}
	}()
	answers := make([]*serve.Answer, len(s.jobs))
	var shed atomic.Int64
	recs, wall := closedLoop(ecoClients, d, func(c, i int) jobRecord {
		j := s.jobs[i]
		rec := jobRecord{class: j.class}
		root := tr.begin(i, 0, "bench.job")
		t0 := time.Now()
		answers[i], rec.err = clients[c].identify(tr, i, root, j)
		rec.latency = time.Since(t0)
		tr.end(root)
		if errors.Is(rec.err, errShed) {
			shed.Add(1)
		}
		return rec
	})
	pr := &ecoPhaseResult{recs: recs, answers: answers[:len(recs)], wall: wall, shed: shed.Load()}
	var err error
	pr.reusedCones, pr.freshCones, err = scrapeCones(clients[0])
	return pr, err
}

var conesLine = regexp.MustCompile(`^rd_serve_store_cones_total\{source="(store|fresh)"\} (\S+)$`)

// scrapeCones reads rd_serve_store_cones_total by source from /metrics.
func scrapeCones(cl *ecoClient) (reused, fresh float64, err error) {
	resp, err := cl.hc.Get(cl.url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if m := conesLine.FindStringSubmatch(sc.Text()); m != nil {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return 0, 0, err
			}
			if m[1] == "store" {
				reused = v
			} else {
				fresh = v
			}
		}
	}
	return reused, fresh, sc.Err()
}

func runEco(cfg runConfig) (*report, error) { return ecoRun(cfg, ecoDefaults) }

func ecoRun(cfg runConfig, p ecoParams) (*report, error) {
	rep := &report{}
	var s *ecoSetup
	var srv *ecoServer
	i := 0
	err := rep.setUp(cfg.cal, ecoSetups, func() (time.Duration, error) {
		if srv != nil {
			srv.close()
			os.RemoveAll(s.dir)
		}
		i++
		return timed(func() (err error) {
			if s, err = ecoPrepare(cfg.seed, p, filepath.Join(cfg.work, fmt.Sprintf("store%d", i))); err != nil {
				return err
			}
			srv, err = startEcoServer(s.dir, cfg.work)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	// A traced run needs two more copies of the warmed store: one per
	// further phase, so each phase sees the same store contents.
	tracedDir, replayDir := filepath.Join(cfg.work, "traced"), filepath.Join(cfg.work, "replay")
	if cfg.trace {
		if err := copyDir(s.dir, tracedDir); err != nil {
			return nil, err
		}
		if err := copyDir(s.dir, replayDir); err != nil {
			return nil, err
		}
	}

	d := startPhase(cfg, len(s.jobs), s.roundSize, p.minRounds, cfg.trace)
	untraced, err := ecoPhase(srv, s, d, nil)
	srv.close()
	if err != nil {
		return nil, err
	}
	rep.jobs, rep.wall, rep.phaseScale = untraced.recs, untraced.wall, d.scale()
	rep.peakRSS = d.prefixRSS
	phases := []*ecoPhaseResult{untraced}

	var traced *ecoPhaseResult
	var replay *ecoReplay
	tr := newTracer()
	if cfg.trace {
		tsrv, err := startEcoServer(tracedDir, cfg.work)
		if err != nil {
			return nil, err
		}
		traced, err = ecoPhase(tsrv, s, startPhase(cfg, len(s.jobs), s.roundSize, p.minRounds, true), tr)
		tsrv.close()
		if err != nil {
			return nil, err
		}
		rep.traced = traced.recs
		phases = append(phases, traced)
		if replay, err = ecoReplayStore(replayDir, s, len(traced.recs), tr); err != nil {
			return nil, err
		}
	}

	// Check every answer against a single-process identification of the
	// same netlist, computed after the timed phases.
	n := 0
	for _, ph := range phases {
		n = max(n, len(ph.recs))
	}
	refs, err := references(s.jobs[:n], func(j ecoJob) netlist { return netlist{j.name, j.bench} }, core.Heuristic1, ecoWorkers, ecoClients)
	if err != nil {
		return nil, err
	}
	for _, ph := range phases {
		for i := range ph.recs {
			if ph.recs[i].err != nil {
				continue
			}
			a := ph.answers[i]
			j := s.jobs[i]
			if got := (counters{a.Selected, a.RD, a.TotalPaths}); got != refs[j.bench].counters {
				ph.recs[i].err = fmt.Errorf("job %s: counters %+v, single-process %+v", j.name, got, refs[j.bench].counters)
			} else if a.Store != j.class && rep.checkErr == nil {
				rep.checkErr = fmt.Errorf("job %s: store answered %q, the job list predicted %q", j.name, a.Store, j.class)
			}
		}
	}
	if !cfg.trace {
		return rep, nil
	}
	if err := replay.check(s, refs); err != nil && rep.checkErr == nil {
		rep.checkErr = err
	}
	rep.spans = tr.snapshot()
	rep.layer = ecoLayerMetrics(s, traced, replay)
	rep.layer["store.disk_mb"] = dirSizeMB(tracedDir)
	rep.layer["trace.overhead_ratio"] = (float64(len(traced.recs)) / traced.wall.Seconds()) / (float64(len(untraced.recs)) / untraced.wall.Seconds())
	addSelfMetrics(rep.layer, rep.spans)
	return rep, nil
}

// ecoReplay is the traced job list replayed straight through
// store.IdentifyThrough on a copy of the warmed store, without HTTP.
type ecoReplay struct {
	results []*store.Result
	latency []time.Duration
	errs    []error
	// hash is HashFor's time per distinct netlist.
	hash map[string]time.Duration
}

func ecoReplayStore(dir string, s *ecoSetup, n int, tr *tracer) (*ecoReplay, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	r := &ecoReplay{results: make([]*store.Result, n), latency: make([]time.Duration, n), errs: make([]error, n), hash: map[string]time.Duration{}}
	var mu sync.Mutex
	closedLoop(ecoClients, &dealer{n: n, roundSize: n, minRounds: 1}, func(_, i int) jobRecord {
		j := s.jobs[i]
		job := len(s.jobs) + i // replay spans get job ids past the served ones
		root := tr.begin(job, 0, "bench.replay")
		defer tr.end(root)
		sp := tr.begin(job, root, "circuit.parse")
		c, err := parse(j.name, j.bench)
		tr.end(sp)
		if err != nil {
			r.errs[i] = err
			return jobRecord{}
		}
		sp = tr.begin(job, root, "store.hash")
		dh, err := timed(func() error { _, _, err := store.HashFor(c); return err })
		tr.end(sp)
		mu.Lock()
		if _, ok := r.hash[j.bench]; !ok {
			r.hash[j.bench] = dh
		}
		mu.Unlock()
		sp = tr.begin(job, root, "store.identify")
		r.latency[i], r.errs[i] = timed(func() (err error) {
			r.results[i], err = store.IdentifyThrough(st, c, store.Options{Heuristic: core.Heuristic1, Workers: ecoWorkers})
			return err
		})
		tr.end(sp)
		return jobRecord{}
	})
	return r, nil
}

func (r *ecoReplay) check(s *ecoSetup, refs map[string]reference) error {
	for i, res := range r.results {
		j := s.jobs[i]
		if r.errs[i] != nil {
			return fmt.Errorf("replay of %s: %w", j.name, r.errs[i])
		}
		if got := (counters{res.Selected, res.RDStr, res.TotalStr}); got != refs[j.bench].counters {
			return fmt.Errorf("replay of %s: counters %+v, single-process %+v", j.name, got, refs[j.bench].counters)
		}
		if res.Outcome != j.class {
			return fmt.Errorf("replay of %s: store answered %q, the job list predicted %q", j.name, res.Outcome, j.class)
		}
	}
	return nil
}

func ecoLayerMetrics(s *ecoSetup, traced *ecoPhaseResult, replay *ecoReplay) map[string]float64 {
	m := map[string]float64{}
	served, direct := map[string][]float64{}, map[string][]float64{}
	var overhead []float64
	count := map[string]float64{}
	for i, rec := range traced.recs {
		if rec.err != nil {
			continue
		}
		count[traced.answers[i].Store]++
		class := s.jobs[i].class
		served[class] = append(served[class], rec.latency.Seconds())
		direct[class] = append(direct[class], replay.latency[i].Seconds())
		overhead = append(overhead, (rec.latency - replay.latency[i]).Seconds())
	}
	for _, class := range []string{"hit", "delta", "miss"} {
		m["serve."+class+"_p50_s"] = median(served[class])
		m["store."+class+"_p50_s"] = median(direct[class])
		m["store."+class+"_frac"] = count[class] / float64(len(traced.recs))
	}
	m["serve.overhead_p50_s"] = median(overhead)
	var hash []float64
	for _, d := range replay.hash {
		hash = append(hash, d.Seconds())
	}
	m["store.hash_s"] = median(hash)
	if total := traced.reusedCones + traced.freshCones; total > 0 {
		m["store.cones_reused_frac"] = traced.reusedCones / total
	}
	m["serve.shed"] = float64(traced.shed)
	return m
}

// reference is a single-process answer: its counters, and the segments
// of its final pass.
type reference struct {
	counters
	segments int64
}

// references identifies every distinct netlist among jobs in a single
// process, on the given number of goroutines of `workers` enumeration
// workers each, and returns the answers by netlist text.
func references[J any](jobs []J, net func(J) netlist, h core.Heuristic, workers, goroutines int) (map[string]reference, error) {
	var distinct []netlist
	seen := map[string]bool{}
	for _, j := range jobs {
		nl := net(j)
		if !seen[nl.bench] {
			seen[nl.bench] = true
			distinct = append(distinct, nl)
		}
	}
	out := make([]reference, len(distinct))
	errs := make([]error, len(distinct))
	closedLoop(goroutines, &dealer{n: len(distinct), roundSize: max(len(distinct), 1), minRounds: 1}, func(_, i int) jobRecord {
		c, err := parse(distinct[i].name, distinct[i].bench)
		if err == nil {
			var r *core.Report
			if r, err = core.Identify(c, h, core.Options{Workers: workers}); err == nil && r.RD == nil {
				err = fmt.Errorf("reference run of %s ended %v", distinct[i].name, r.Status)
			} else if err == nil {
				out[i] = reference{counters{r.Selected, r.RD.String(), r.TotalLogicalPaths.String()}, r.Final.Segments}
			}
		}
		errs[i] = err
		return jobRecord{}
	})
	refs := map[string]reference{}
	for i, nl := range distinct {
		if errs[i] != nil {
			return nil, errs[i]
		}
		refs[nl.bench] = out[i]
	}
	return refs, nil
}
