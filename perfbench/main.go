// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads through the layers' public Go APIs, checks every
// answer, and prints the metrics by name with their units. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every layer call and reports the per-layer
// metrics instead. See README.md for the workloads and how to read a
// traced run.
//
// Usage:
//
//	perfbench --workload suite-cold|eco-http|fleet-jnl --seed N --seconds S --trace 0|1
//	perfbench --summary DIR   # self time per layer from the traces in DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layers are the program's modules as the trace names them; a span
// "core.sort" belongs to layer "core". "bench" is the harness itself.
var layers = []string{"bench", "circuit", "analysis", "core", "store", "serve", "fleet", "journal"}

// perLayer are the metrics a traced run reports. A workload that does not
// exercise a layer reports 0 for that layer's metrics.
var perLayer = append([]metricDef{
	{"circuit.parse_s", "s"},
	{"analysis.paths_s", "s"},
	{"core.sort_s", "s"},
	{"core.sort_share", "ratio"},
	{"core.enum_s", "s"},
	{"core.segments", "count"},
	{"core.sort_segments", "count"},
	{"core.ns_per_segment", "ns"},
	{"core.pruned_frac", "ratio"},
	{"core.cpu_util", "ratio"},
	{"logic.cpu_share", "ratio"},
	{"serve.hit_p50_s", "s"},
	{"serve.delta_p50_s", "s"},
	{"serve.miss_p50_s", "s"},
	{"store.hit_p50_s", "s"},
	{"store.delta_p50_s", "s"},
	{"store.miss_p50_s", "s"},
	{"serve.overhead_p50_s", "s"},
	{"store.hash_s", "s"},
	{"store.hit_frac", "ratio"},
	{"store.delta_frac", "ratio"},
	{"store.miss_frac", "ratio"},
	{"store.cones_reused_frac", "ratio"},
	{"store.disk_mb", "MB"},
	{"serve.shed", "count"},
	{"fleet.coord_serial_share", "ratio"},
	{"fleet.fanout_s", "s"},
	{"fleet.merge_s", "s"},
	{"fleet.cone_rtt_p50_s", "s"},
	{"fleet.cone_overhead_p50_s", "s"},
	{"fleet.worker_idle_frac", "ratio"},
	{"fleet.segment_tax", "ratio"},
	{"journal.records", "count"},
	{"journal.bytes", "bytes"},
	{"journal.append_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}, selfMetrics()...)

func selfMetrics() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	return defs
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// work is a scratch directory inside the checkout, removed at exit.
	work string
	// warmup is how long the host is kept busy before each timed phase.
	warmup time.Duration
	// cal samples the host's speed (see calib.go); nil leaves times
	// unscaled.
	cal *calibrator
}

// hostWarmup is the warm-up of a benchmark run. On the 2-vCPU host the
// first ~3 s of two-thread load ran 10-25% slower than the rest, in
// every new process, so timing starts only after that.
const hostWarmup = 3 * time.Second

// workload is one benchmark scenario plus the resources it occupies,
// which the budget guard checks against the host before running.
type workload struct {
	name string
	// busy is the number of enumeration goroutines running at once.
	busy int
	// conns is the number of client connections held open at once.
	conns int
	// fsyncs is set when the workload fsyncs in its timed phase, so that
	// calibration measures fsync too.
	fsyncs bool
	run    func(runConfig) (*report, error)
}

var workloads = []workload{
	{name: "suite-cold", busy: suiteWorkers, conns: 0, run: runSuite},
	{name: "eco-http", busy: ecoMaxInFlight * ecoWorkers, conns: ecoClients, run: runEco},
	{name: "fleet-jnl", busy: fleetPool * fleetEnumWorkers, conns: fleetPool, fsyncs: true, run: runFleet},
}

// checkBudget refuses a configuration that oversubscribes the host: more
// busy enumeration goroutines, or more client connections, than CPUs.
func checkBudget(w workload, nproc int) error {
	if w.busy > nproc {
		return fmt.Errorf("%s runs %d busy enumeration goroutines on %d CPUs", w.name, w.busy, nproc)
	}
	if w.conns > nproc {
		return fmt.Errorf("%s opens %d client connections on %d CPUs", w.name, w.conns, nproc)
	}
	return nil
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go_version": runtime.Version(),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "suite-cold | eco-http | fleet-jnl")
		seed    = flag.Int64("seed", 1, "seed of the generated job list")
		seconds = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		summary = flag.String("summary", "", "print per-layer self time from the trace files in this directory and exit")
	)
	flag.Parse()
	if *summary != "" {
		if err := printSummary(os.Stdout, *summary); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if err := checkBudget(*w, runtime.NumCPU()); err != nil {
		fatal(fmt.Errorf("refusing to run: %w", err))
	}
	host := hostFingerprint()
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fatal(err)
	}
	syncDir := ""
	if w.fsyncs {
		syncDir = work
	}
	cal, err := newCalibrator(syncDir)
	if err != nil {
		fatal(fmt.Errorf("calibration: %w", err))
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, work: work, warmup: hostWarmup, cal: cal}
	rep, err := w.run(cfg)
	cal.close()
	os.RemoveAll(work)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	if err := cal.failure(); err != nil {
		fatal(fmt.Errorf("calibration: %w", err))
	}

	out := resultLine{Correct: rep.failed() == 0 && rep.checkErr == nil, Attempted: rep.attempted(), Failed: rep.failed(), Metrics: map[string]metricValue{}}
	if rep.checkErr != nil {
		fmt.Printf("check failed: %v\n", rep.checkErr)
	}
	defs := endToEnd
	vals := rep.endToEnd()
	if cfg.trace {
		defs, vals = perLayer, rep.layer
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := writeTrace(path, w.name, *seed, host, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", path)
		printSelf(os.Stdout, w.name, rep.layer)
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	for _, j := range append(rep.jobs[:len(rep.jobs):len(rep.jobs)], rep.traced...) {
		if j.err != nil {
			fmt.Printf("failed job (%s): %v\n", j.class, j.err)
		}
	}
	printClasses(rep.jobs)
	raw := rep.unscaled()
	fmt.Printf("host speed ÷ reference (%d samples): set-up %.4f, timed phase %.4f; unscaled jobs_per_s %.6g, job_p50_s %.6g, job_p90_s %.6g, setup_s %.6g\n",
		cfg.cal.mark(), orOne(rep.setupScale), orOne(rep.phaseScale), raw["jobs_per_s"], raw["job_p50_s"], raw["job_p90_s"], raw["setup_s"])
	printMetrics(defs, out.Metrics)
	fmt.Printf("%-28s %14.6g %s\n", "failed_frac", float64(out.Failed)/float64(max(out.Attempted, 1)), "ratio")
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// buildDir holds everything a run leaves behind, at the checkout root.
const buildDir = ".bench_build"

func printMetrics(defs []metricDef, m map[string]metricValue) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printClasses prints the latency of the jobs that did not fail, by job
// class.
func printClasses(jobs []jobRecord) {
	lat := map[string][]float64{}
	var classes []string
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if lat[j.class] == nil {
			classes = append(classes, j.class)
		}
		lat[j.class] = append(lat[j.class], j.latency.Seconds())
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := lat[c]
		m := median(xs)
		fmt.Printf("class %-10s %5d jobs  latency min %.4g  median %.4g  max %.4g s\n", c, len(xs), xs[0], m, xs[len(xs)-1])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
