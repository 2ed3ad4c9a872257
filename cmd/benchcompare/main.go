// Command benchcompare is the CI perf-regression gate for the
// identification benchmark: it compares a freshly generated
// BENCH_identify.json against a committed baseline and exits nonzero if
// any circuit's cached speedup or paths/sec throughput regressed beyond
// the tolerance. Both artifacts must be on the current benchjson schema.
// A row whose baseline carries no paths_per_sec (a store hit walks no
// paths) is gated on speedup alone.
//
// Usage:
//
//	benchcompare -baseline BENCH_identify.json -current BENCH_identify.new.json
//
// The tolerance is a ratio: with -tolerance 0.85 (the default), the gate
// fails when current speedup < 0.85 * baseline speedup for any circuit.
// Absolute ns/op is deliberately not gated — wall-clock shifts with the
// host, while speedup and paths/sec are ratios of runs on the same host.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rdfault/internal/benchjson"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_identify.json", "committed baseline artifact")
		currentPath  = flag.String("current", "", "freshly generated artifact to gate (required)")
		tolerance    = flag.Float64("tolerance", 0.85, "minimum allowed current/baseline ratio per metric")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -current is required")
		os.Exit(2)
	}
	if *tolerance <= 0 || *tolerance > 1 {
		fmt.Fprintln(os.Stderr, "benchcompare: -tolerance must be in (0, 1]")
		os.Exit(2)
	}

	var base, cur []benchjson.IdentifyRow
	if err := benchjson.ReadFile(*baselinePath, benchjson.KindIdentify, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: baseline: %v\n", err)
		os.Exit(2)
	}
	if err := benchjson.ReadFile(*currentPath, benchjson.KindIdentify, &cur); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: current: %v\n", err)
		os.Exit(2)
	}

	regressions := compare(os.Stdout, base, cur, *tolerance)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d regression(s) beyond tolerance %.2f\n",
			regressions, *tolerance)
		os.Exit(1)
	}
	fmt.Printf("benchcompare: no regressions (tolerance %.2f)\n", *tolerance)
}

// compare prints a per-circuit table and returns the number of gated
// regressions. A circuit present only in one artifact is a regression:
// silently dropping a suite member must not pass the gate.
func compare(w io.Writer, base, cur []benchjson.IdentifyRow, tol float64) int {
	curBy := make(map[string]benchjson.IdentifyRow, len(cur))
	for _, r := range cur {
		curBy[r.Circuit] = r
	}
	regressions := 0
	fmt.Fprintf(w, "%-8s  %22s  %26s\n", "circuit", "speedup base -> cur", "paths/sec base -> cur")
	for _, b := range base {
		c, ok := curBy[b.Circuit]
		if !ok {
			fmt.Fprintf(w, "%-8s  MISSING from current artifact\n", b.Circuit)
			regressions++
			continue
		}
		delete(curBy, b.Circuit)

		spOK := c.Speedup >= tol*b.Speedup
		line := fmt.Sprintf("%-8s  %8.2fx -> %8.2fx", b.Circuit, b.Speedup, c.Speedup)
		if !spOK {
			line += " REGRESSED"
			regressions++
		}
		if b.PathsPerSec > 0 {
			ppsOK := c.PathsPerSec >= tol*b.PathsPerSec
			line += fmt.Sprintf("  %10.3g -> %10.3g", b.PathsPerSec, c.PathsPerSec)
			if !ppsOK {
				line += " REGRESSED"
				regressions++
			}
		} else {
			line += "  (baseline lacks paths/sec; skipped)"
		}
		fmt.Fprintln(w, line)
	}
	for name := range curBy {
		// New circuits are fine — they just aren't gated yet.
		fmt.Fprintf(w, "%-8s  new circuit (no baseline)\n", name)
	}
	return regressions
}
