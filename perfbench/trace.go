package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are seconds since the phase began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pass nil and pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(job, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a span whose bounds were observed elsewhere, such as the
// fleet's dispatch and complete events.
func (t *tracer) add(job, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.layer()] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// addSelfMetrics stores each layer's self time as "<layer>.self_s".
func addSelfMetrics(m map[string]float64, spans []span) {
	for l, v := range selfTimes(spans) {
		m[l+".self_s"] = v
	}
}

// traceFile is what a traced run writes out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     map[string]any     `json:"host"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path, workload string, seed int64, host map[string]any, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: host, Metrics: rep.layer, Spans: rep.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelf prints one workload's self time per layer, its share of the
// traced total, and the tracing overhead.
func printSelf(w io.Writer, workload string, m map[string]float64) {
	var total float64
	for _, l := range layers {
		total += m[l+".self_s"]
	}
	fmt.Fprintf(w, "self time by layer, %s (traced jobs_per_s / untraced = %.4f)\n", workload, m["trace.overhead_ratio"])
	for _, l := range layers {
		v := m[l+".self_s"]
		if v == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s %10.4f s %6.1f%%\n", l+".self_s", v, 100*v/total)
	}
}

// printSummary prints printSelf for every trace file in dir.
func printSummary(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no trace files in %s", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		printSelf(w, fmt.Sprintf("%s seed %d", tf.Workload, tf.Seed), tf.Metrics)
	}
	return nil
}
