package main

import (
	"strings"
	"testing"

	"rdfault/internal/benchjson"
	"rdfault/internal/cliutil/goldentest"
)

func row(circuit string, speedup, pps float64) benchjson.IdentifyRow {
	return benchjson.IdentifyRow{Circuit: circuit, Speedup: speedup, PathsPerSec: pps}
}

// TestCompareGate: the regression arithmetic — within-tolerance drift
// passes, beyond-tolerance drift fails, missing circuits fail, and a
// paths/sec the baseline row lacks (a store-hit row) is skipped.
func TestCompareGate(t *testing.T) {
	base := []benchjson.IdentifyRow{row("c432", 2.0, 1e6), row("c880", 3.0, 2e6)}

	t.Run("clean", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 2.1, 1.1e6), row("c880", 2.9, 1.9e6)}
		if n := compare(&strings.Builder{}, base, cur, 0.85); n != 0 {
			t.Fatalf("clean run reported %d regressions", n)
		}
	})
	t.Run("speedup-regressed", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 1.5, 1e6), row("c880", 3.0, 2e6)}
		var out strings.Builder
		if n := compare(&out, base, cur, 0.85); n != 1 {
			t.Fatalf("want 1 regression, got %d\n%s", n, out.String())
		}
		if !strings.Contains(out.String(), "REGRESSED") {
			t.Fatalf("regression not flagged in output:\n%s", out.String())
		}
	})
	t.Run("pps-regressed", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 2.0, 0.5e6), row("c880", 3.0, 2e6)}
		if n := compare(&strings.Builder{}, base, cur, 0.85); n != 1 {
			t.Fatalf("want 1 regression, got %d", n)
		}
	})
	t.Run("missing-circuit", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 2.0, 1e6)}
		if n := compare(&strings.Builder{}, base, cur, 0.85); n != 1 {
			t.Fatalf("dropped circuit must gate: got %d", n)
		}
	})
	t.Run("legacy-baseline-skips-pps", func(t *testing.T) {
		noPPS := []benchjson.IdentifyRow{row("c432", 2.0, 0)} // a row with no paths/sec
		cur := []benchjson.IdentifyRow{row("c432", 2.0, 1e6)}
		var out strings.Builder
		if n := compare(&out, noPPS, cur, 0.85); n != 0 {
			t.Fatalf("a baseline row without paths/sec must skip it, got %d regressions", n)
		}
		if !strings.Contains(out.String(), "skipped") {
			t.Fatalf("skip not reported:\n%s", out.String())
		}
	})
}

// TestGoldenCompare: the passing-path output format against v2 fixtures,
// including a store-hit row whose paths/sec is skipped.
func TestGoldenCompare(t *testing.T) {
	golden := goldentest.Golden(t, "compare")
	baseline := goldentest.Fixture(t, "baseline.json")
	current := goldentest.Fixture(t, "current.json")
	out := goldentest.Run(t, "benchcompare", main,
		"-baseline", baseline, "-current", current, "-tolerance", "0.85")
	goldentest.Check(t, golden, out)
}
