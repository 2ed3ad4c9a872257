package benchjson

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleEnumerate() []EnumerateRow {
	return []EnumerateRow{
		{Workers: 1, NsPerOp: 1000, PathsPerSec: 1e6, Speedup: 1, Selected: 42, RD: "17", GOMAXPROCS: 8, NumCPU: 8},
		{Workers: 4, NsPerOp: 300, PathsPerSec: 3.3e6, Speedup: 3.33, Selected: 42, RD: "17", GOMAXPROCS: 8, NumCPU: 8},
	}
}

func sampleIdentify() []IdentifyRow {
	return []IdentifyRow{{
		Circuit: "c432", UncachedNsOp: 900, CachedNsOp: 300, CachedColdNs: 1200, Speedup: 3,
		PathsPerSec: 2.5e7, HotLoopAllocs: 0,
		UncachedAllocs: 50, CachedAllocs: 10, UncachedBytes: 4096, CachedBytes: 512,
		Counters: IdentifyCounters{
			Selected: [3]int64{10, 8, 7},
			RD:       [3]string{"1", "3", "4"},
			Segments: [3]int64{100, 90, 80},
		},
	}}
}

// TestRoundTrip: both row kinds survive the envelope bit-identically,
// through the stream and the file API.
func TestRoundTrip(t *testing.T) {
	t.Run("enumerate", func(t *testing.T) {
		in := sampleEnumerate()
		var buf bytes.Buffer
		if err := Encode(&buf, KindEnumerate, in); err != nil {
			t.Fatal(err)
		}
		var out []EnumerateRow
		if err := Decode(&buf, KindEnumerate, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mangled rows:\nin  %+v\nout %+v", in, out)
		}
	})
	t.Run("identify-file", func(t *testing.T) {
		in := sampleIdentify()
		path := filepath.Join(t.TempDir(), "BENCH_identify.json")
		if err := WriteFile(path, KindIdentify, in); err != nil {
			t.Fatal(err)
		}
		var out []IdentifyRow
		if err := ReadFile(path, KindIdentify, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("file round trip mangled rows:\nin  %+v\nout %+v", in, out)
		}
	})
}

// TestEnvelopeRejection: a reader must refuse wrong schemas and wrong
// kinds instead of silently misreading fields.
func TestEnvelopeRejection(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, KindEnumerate, sampleEnumerate()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	var rows []EnumerateRow
	if err := Decode(strings.NewReader(good), KindIdentify, &rows); err == nil {
		t.Fatal("decoder accepted the wrong kind")
	}
	bad := strings.Replace(good, Schema, "rdfault-bench/v0", 1)
	if err := Decode(strings.NewReader(bad), KindEnumerate, &rows); err == nil {
		t.Fatal("decoder accepted an unknown schema")
	}
	if err := Decode(strings.NewReader("[1,2,3]"), KindEnumerate, &rows); err == nil {
		t.Fatal("decoder accepted a bare rows array with no envelope")
	}
}

// TestEnvelopeHeader: the written artifact leads with the schema tag so
// `head -2` on a BENCH file identifies it.
func TestEnvelopeHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, KindIdentify, sampleIdentify()); err != nil {
		t.Fatal(err)
	}
	head := buf.String()
	if i := strings.Index(head, `"schema"`); i < 0 || i > 20 {
		t.Fatalf("schema tag not at the head of the artifact:\n%s", head[:80])
	}
}
