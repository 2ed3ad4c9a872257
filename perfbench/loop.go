package main

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// jobRecord is one job of a timed phase.
type jobRecord struct {
	// class labels the job within its workload: the circuit for
	// suite-cold and fleet-jnl, the expected store outcome for eco-http.
	class   string
	latency time.Duration
	// err is non-nil when the job errored, was refused or answered
	// wrong counters.
	err error
}

// report is what a workload run hands back to main.
type report struct {
	// jobs are the untraced timed phase; traced are the traced phase of a
	// --trace 1 run (nil otherwise).
	jobs, traced []jobRecord
	wall         time.Duration
	setups       []time.Duration
	// setupScale and phaseScale are the host's speed relative to the
	// reference over the set-ups and over the untraced phase (see
	// calib.go); 0 means unmeasured and is taken as 1.
	setupScale, phaseScale float64
	// peakRSS is the process's peak resident set in MB over set-up and
	// the untraced phase's first minRounds rounds: a fixed amount of work,
	// so it does not grow with throughput (the server keeps every job).
	peakRSS float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	spans []span
	// checkErr reports a failed check that belongs to no single job.
	checkErr error
}

func (r *report) failed() int {
	n := 0
	for _, phase := range [][]jobRecord{r.jobs, r.traced} {
		for _, j := range phase {
			if j.err != nil {
				n++
			}
		}
	}
	return n
}

func (r *report) attempted() int { return len(r.jobs) + len(r.traced) }

// endToEnd computes the untraced phase's end-to-end metrics, every time
// scaled to the reference host speed. A failed job counts as missing
// every latency limit.
func (r *report) endToEnd() map[string]float64 {
	m := r.unscaled()
	setup, phase := orOne(r.setupScale), orOne(r.phaseScale)
	m["jobs_per_s"] /= phase
	m["job_p50_s"] *= phase
	m["job_p90_s"] *= phase
	m["setup_s"] *= setup
	return m
}

// unscaled is endToEnd in the host time the run measured.
func (r *report) unscaled() map[string]float64 {
	lat := make([]float64, len(r.jobs))
	ok := 0
	for i, j := range r.jobs {
		lat[i] = math.Inf(1)
		if j.err == nil {
			lat[i] = j.latency.Seconds()
			ok++
		}
	}
	sort.Float64s(lat)
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	sort.Float64s(setups)
	return map[string]float64{
		"jobs_per_s":  float64(ok) / r.wall.Seconds(),
		"job_p50_s":   quantile(lat, 0.5),
		"job_p90_s":   quantile(lat, 0.9),
		"setup_s":     quantile(setups, 0.5),
		"peak_rss_mb": r.peakRSS,
	}
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// setUp runs a workload's set-up n times. Each call returns the part of
// its time that counts as set-up. Calibration samples precede every
// set-up and follow the last, and r records the set-up times and the
// host's speed over them.
func (r *report) setUp(cal *calibrator, n int, f func() (time.Duration, error)) error {
	mark := cal.mark()
	// Gap g of the n+1 gets its share of calSetupSamples.
	samples := func(g int) {
		for k := g * calSetupSamples / (n + 1); k < (g+1)*calSetupSamples/(n+1); k++ {
			cal.sample()
		}
	}
	for i := 0; i < n; i++ {
		samples(i)
		d, err := f()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d)
	}
	samples(n)
	r.setupScale = cal.scale(mark)
	return nil
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if sorted[hi] == sorted[lo] {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// dealer hands job indexes to closed-loop clients. Jobs come in rounds
// of a fixed mix, and a phase always runs whole rounds: it stops at the
// first round boundary past the deadline once minRounds are done. A zero
// deadline runs exactly minRounds, which traced phases and tests use so
// that every count is exact.
type dealer struct {
	mu        sync.Mutex
	next, n   int
	roundSize int
	minRounds int
	deadline  time.Time
	stopped   bool
	// prefixRSS is peakRSSMB when the first minRounds rounds were dealt.
	prefixRSS float64

	// cal, when set, samples the host every calEvery: take holds back
	// new jobs until none is in flight, samples, and deals on. The
	// samples' time is paused, which the phase's wall time excludes.
	cal      *calibrator
	calMark  int
	nextCal  time.Time
	inflight int
	pausing  bool
	cond     *sync.Cond
	paused   time.Duration
}

func (d *dealer) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cal != nil && !d.stopped {
		d.calibrate()
	}
	if d.next == d.minRounds*d.roundSize && d.prefixRSS == 0 {
		d.prefixRSS = peakRSSMB()
	}
	if d.stopped || d.next >= d.n {
		return 0, false
	}
	if d.next%d.roundSize == 0 && d.next/d.roundSize >= d.minRounds &&
		(d.deadline.IsZero() || !time.Now().Before(d.deadline)) {
		d.stopped = true
		return 0, false
	}
	i := d.next
	d.next++
	d.inflight++
	return i, true
}

// finish marks one dealt job as answered.
func (d *dealer) finish() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inflight--
	if d.inflight == 0 && d.cond != nil {
		d.cond.Broadcast()
	}
}

// calibrate takes a calibration sample when one is due, once no job is
// in flight. It is called with d.mu held.
func (d *dealer) calibrate() {
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	for d.pausing {
		d.cond.Wait()
	}
	if time.Now().Before(d.nextCal) {
		return
	}
	d.pausing = true
	for d.inflight > 0 {
		d.cond.Wait()
	}
	d.mu.Unlock()
	t0 := time.Now()
	d.cal.sample()
	now := time.Now()
	d.mu.Lock()
	d.paused += now.Sub(t0)
	d.nextCal = now.Add(calEvery)
	d.pausing = false
	d.cond.Broadcast()
}

// scale is the host's speed over the phase's samples (see calib.go).
func (d *dealer) scale() float64 { return d.cal.scale(d.calMark) }

// closedLoop runs jobs from d on the given number of clients, each
// sending its next job only when the previous one is answered. It
// returns the records of the jobs run, in job-list order, and the wall
// time from the first send to the last answer, less the time the
// dealer paused for calibration.
func closedLoop(clients int, d *dealer, do func(client, i int) jobRecord) ([]jobRecord, time.Duration) {
	recs := make([]jobRecord, d.n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				recs[i] = do(c, i)
				d.finish()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	d.mu.Lock()
	defer d.mu.Unlock()
	return recs[:d.next], wall - d.paused
}

// startPhase warms the host for cfg.warmup, then returns the dealer of
// one timed phase: deadline-bound and calibrated for an untraced phase,
// exactly minRounds for a traced one.
func startPhase(cfg runConfig, n, roundSize, minRounds int, fixed bool) *dealer {
	warmHost(cfg.warmup)
	d := &dealer{n: n, roundSize: roundSize, minRounds: minRounds}
	if !fixed {
		d.deadline = time.Now().Add(cfg.seconds)
		d.cal, d.calMark = cfg.cal, cfg.cal.mark()
	}
	return d
}

// warmHost keeps two goroutines busy for d.
func warmHost(d time.Duration) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for end := time.Now().Add(d); time.Now().Before(end); {
				for i := 0; i < 1<<16; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
}

// sink keeps warmHost's loop from being optimized away.
var sink atomic.Uint64

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirSizeMB sums the sizes of the regular files under dir.
func dirSizeMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}
