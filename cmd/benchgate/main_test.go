package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOld = `goos: linux
goarch: amd64
pkg: repro/internal/sampling
BenchmarkVectorMC/st/mc/n256-4      	    1000	    100000 ns/op	       0 B/op	       0 allocs/op
BenchmarkVectorMC/st/mc/n256-4      	    1000	    102000 ns/op	       0 B/op	       0 allocs/op
BenchmarkVectorMC/st/mc/n256-4      	    1000	     98000 ns/op	       0 B/op	       0 allocs/op
BenchmarkVectorMC/st/mcvec/n256-4   	    5000	     20000 ns/op	       0 B/op	       0 allocs/op
BenchmarkParallelReliability/mc/w1-4	     100	   4000000 ns/op
BenchmarkParallelReliability/mc/w4-4	     400	   1500000 ns/op
BenchmarkAnytimeEstimate/adaptive/p0.02-4	      10	   2000000 ns/op	      1280 samples/op	       9 allocs/op
BenchmarkAnytimeEstimate/fixed/p0.02-4  	       1	 130000000 ns/op	     65536 samples/op	       8 allocs/op
BenchmarkApply/delta/b1-4               	    1000	     10000 ns/op	       30000 B/op	      26 allocs/op
BenchmarkApply/clone/b1-4               	     100	     90000 ns/op	      160000 B/op	     497 allocs/op
PASS
`

const sampleNew = `goos: linux
BenchmarkVectorMC/st/mc/n256-8      	    1000	    101000 ns/op	       0 B/op	       0 allocs/op
BenchmarkVectorMC/st/mcvec/n256-8   	    5000	     19000 ns/op	       0 B/op	       0 allocs/op
BenchmarkParallelReliability/mc/w1-8	     100	   4100000 ns/op
BenchmarkParallelReliability/mc/w4-8	     400	   1400000 ns/op
BenchmarkAnytimeEstimate/adaptive/p0.02-8	      10	   2100000 ns/op	      1280 samples/op	       9 allocs/op
BenchmarkAnytimeEstimate/fixed/p0.02-8  	       1	 131000000 ns/op	     65536 samples/op	       8 allocs/op
BenchmarkApply/delta/b1-8               	    1000	     10500 ns/op	       30000 B/op	      26 allocs/op
BenchmarkApply/clone/b1-8               	     100	     91000 ns/op	      160000 B/op	     497 allocs/op
PASS
`

func parse(t *testing.T, s string) map[string]*result {
	t.Helper()
	res, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseBenchStripsGOMAXPROCSAndAggregatesRuns(t *testing.T) {
	res := parse(t, sampleOld)
	r, ok := res["BenchmarkVectorMC/st/mc/n256"]
	if !ok {
		t.Fatalf("missing benchmark after suffix strip; have %v", keys(res))
	}
	if len(r.nsOp) != 3 {
		t.Fatalf("want 3 runs aggregated, got %d", len(r.nsOp))
	}
	if m := median(r.nsOp); m != 100000 {
		t.Fatalf("median = %v, want 100000", m)
	}
	if a := median(r.allocsOp); a != 0 {
		t.Fatalf("allocs median = %v, want 0", a)
	}
}

func keys(m map[string]*result) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Fatalf("empty median = %v, want NaN", m)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := parse(t, "BenchmarkA-4 100 1000 ns/op\nBenchmarkB-4 100 1000 ns/op\nBenchmarkGone-4 1 5 ns/op\n")
	new := parse(t, "BenchmarkA-4 100 1050 ns/op\nBenchmarkB-4 100 1200 ns/op\nBenchmarkAdded-4 1 5 ns/op\n")
	ds := compare(old, new, 0.10)
	if len(ds) != 2 {
		t.Fatalf("want 2 paired benchmarks, got %d: %+v", len(ds), ds)
	}
	// Sorted by name: A then B.
	if ds[0].name != "BenchmarkA" || ds[0].regessed {
		t.Fatalf("A (+5%%) must pass: %+v", ds[0])
	}
	if ds[1].name != "BenchmarkB" || !ds[1].regessed {
		t.Fatalf("B (+20%%) must fail: %+v", ds[1])
	}
}

func TestParseFaster(t *testing.T) {
	a, err := parseFaster("X<Y")
	if err != nil || a.faster != "X" || a.slower != "Y" || a.factor != 1 {
		t.Fatalf("parseFaster: %+v, %v", a, err)
	}
	a, err = parseFaster("X<Y@5")
	if err != nil || a.faster != "X" || a.slower != "Y" || a.factor != 5 {
		t.Fatalf("parseFaster with factor: %+v, %v", a, err)
	}
	for _, bad := range []string{"", "X", "X<", "<Y", "X<Y<Z", "X<Y@", "X<Y@nope", "X<Y@0", "X<Y@-2"} {
		if _, err := parseFaster(bad); err == nil {
			t.Fatalf("parseFaster(%q) accepted", bad)
		}
	}
}

func TestCheckFaster(t *testing.T) {
	res := parse(t, sampleOld)
	ok := fasterAssert{faster: "BenchmarkParallelReliability/mc/w4", slower: "BenchmarkParallelReliability/mc/w1"}
	if err := checkFaster(res, ok); err != nil {
		t.Fatalf("w4<w1 must hold: %v", err)
	}
	bad := fasterAssert{faster: ok.slower, slower: ok.faster}
	if err := checkFaster(res, bad); err == nil {
		t.Fatal("w1<w4 must fail")
	}
	missing := fasterAssert{faster: "BenchmarkNope", slower: ok.slower}
	if err := checkFaster(res, missing); err == nil {
		t.Fatal("missing benchmark must fail")
	}
	// w4 (1.5ms) is 2.67x faster than w1 (4ms): a 2x factor holds, 5x fails.
	by2 := fasterAssert{faster: ok.faster, slower: ok.slower, factor: 2}
	if err := checkFaster(res, by2); err != nil {
		t.Fatalf("w4 2x faster than w1 must hold: %v", err)
	}
	by5 := fasterAssert{faster: ok.faster, slower: ok.slower, factor: 5}
	if err := checkFaster(res, by5); err == nil {
		t.Fatal("w4 5x faster than w1 must fail")
	} else if !strings.Contains(err.Error(), "5x") {
		t.Fatalf("factor missing from diagnostic: %v", err)
	}
}

// twinCases holds one case per entry of twinRules, in the same order: the
// name mapping (exact path segments only) and the artifact entry built
// from sampleOld.
var twinCases = []struct {
	names  map[string]string // benchmark name -> twin name ("" = none)
	want   twin
	noTwin string // benchmark output in which the rule finds no pair
}{
	{ // mcvec -> mc
		names: map[string]string{
			"BenchmarkVectorMC/from/mcvec/n256":        "BenchmarkVectorMC/from/mc/n256",
			"BenchmarkCSRvsLegacy/mcvec/csr/n2048":     "BenchmarkCSRvsLegacy/mc/csr/n2048",
			"BenchmarkParallelReliability/mcvec/w4":    "BenchmarkParallelReliability/mc/w4",
			"BenchmarkVectorMC/from/mc/n256":           "", // already scalar
			"BenchmarkFreeze/n256":                     "",
			"BenchmarkSomething/mcvectors/odd-segment": "", // substring must not match
		},
		want: twin{Name: "BenchmarkVectorMC/st/mcvec/n256", Twin: "BenchmarkVectorMC/st/mc/n256",
			NsPerOp: 20000, AllocsPerOp: 0, TwinNsPerOp: 100000, Speedup: 100000.0 / 20000.0},
	},
	{ // adaptive -> fixed
		names: map[string]string{
			"BenchmarkAnytimeEstimate/adaptive/p0.02": "BenchmarkAnytimeEstimate/fixed/p0.02",
			"BenchmarkAnytimeEstimate/fixed/p0.02":    "", // already fixed
			"BenchmarkSomething/adaptively/odd":       "", // substring must not match
		},
		want: twin{Name: "BenchmarkAnytimeEstimate/adaptive/p0.02", Twin: "BenchmarkAnytimeEstimate/fixed/p0.02",
			NsPerOp: 2000000, AllocsPerOp: 9, TwinNsPerOp: 130000000, Speedup: 130000000.0 / 2000000.0,
			SamplesPerOp: 1280, TwinSamplesPerOp: 65536, SamplesSavedFrac: 1 - 1280.0/65536.0},
		// A pair without the samples/op metric never reports a saving it
		// cannot compute, so the adaptive rule skips it.
		noTwin: "BenchmarkX/adaptive/p1-4 10 100 ns/op\nBenchmarkX/fixed/p1-4 10 900 ns/op\n",
	},
	{ // delta -> clone
		names: map[string]string{
			"BenchmarkApply/delta/b16":  "BenchmarkApply/clone/b16",
			"BenchmarkApply/clone/b16":  "", // already clone
			"BenchmarkX/deltaish/other": "", // substring must not match
		},
		want: twin{Name: "BenchmarkApply/delta/b1", Twin: "BenchmarkApply/clone/b1",
			NsPerOp: 10000, AllocsPerOp: 26, TwinNsPerOp: 90000, Speedup: 90000.0 / 10000.0},
	},
}

// checkTwinNames checks rule i's name mapping.
func checkTwinNames(t *testing.T, i int) {
	t.Helper()
	if len(twinCases) != len(twinRules) {
		t.Fatalf("%d twin cases for %d rules", len(twinCases), len(twinRules))
	}
	rule := twinRules[i]
	for in, want := range twinCases[i].names {
		if got := twinName(in, rule.from, rule.to); got != want {
			t.Errorf("twinName(%q, %s->%s) = %q, want %q", in, rule.from, rule.to, got, want)
		}
	}
}

// checkTwinEntry checks that buildTwins emits one entry per rule from
// sampleOld, that rule i's entry is exact, and that rule i pairs nothing in
// its noTwin output.
func checkTwinEntry(t *testing.T, i int) {
	t.Helper()
	twins := buildTwins(parse(t, sampleOld))
	if len(twins) != len(twinRules) {
		t.Fatalf("want %d twin entries, got %+v", len(twinRules), twins)
	}
	want := twinCases[i].want
	found := false
	for _, tw := range twins {
		if tw.Name == want.Name {
			found = true
			if tw != want {
				t.Errorf("entry %+v, want %+v", tw, want)
			}
		}
	}
	if !found {
		t.Errorf("no entry for %s in %+v", want.Name, twins)
	}
	if s := twinCases[i].noTwin; s != "" {
		if got := buildTwins(parse(t, s)); len(got) != 0 {
			t.Errorf("unpairable results produced entries: %+v", got)
		}
	}
}

func TestScalarTwin(t *testing.T)    { checkTwinNames(t, 0) }
func TestBuildSpeedups(t *testing.T) { checkTwinEntry(t, 0) }
func TestFixedTwin(t *testing.T)     { checkTwinNames(t, 1) }
func TestBuildAnytimes(t *testing.T) { checkTwinEntry(t, 1) }
func TestCloneTwin(t *testing.T)     { checkTwinNames(t, 2) }
func TestBuildApplies(t *testing.T)  { checkTwinEntry(t, 2) }

func TestRenderMarkdown(t *testing.T) {
	old, new := parse(t, sampleOld), parse(t, sampleNew)
	ds := compare(old, new, 0.10)
	tw := buildTwins(new)
	var buf bytes.Buffer
	renderMarkdown(&buf, ds, tw, nil, 0.10)
	out := buf.String()
	for _, want := range []string{"Bench gate: PASS", "BenchmarkVectorMC/st/mc/n256", "speedup", "| ok |", "budget saved", "98%", "twin ns/op", "BenchmarkApply/delta/b1"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	renderMarkdown(&buf, ds, tw, []string{"boom"}, 0.10)
	if out := buf.String(); !strings.Contains(out, "FAIL") || !strings.Contains(out, "boom") {
		t.Errorf("failing markdown wrong:\n%s", out)
	}
}

// TestRunEndToEnd drives the full CLI path: gate pass with artifact and
// summary, then a forced regression and a forced faster-assertion failure.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.txt")
	newPath := filepath.Join(dir, "new.txt")
	twinsPath := filepath.Join(dir, "BENCH_twins.json")
	mdPath := filepath.Join(dir, "summary.md")
	if err := os.WriteFile(oldPath, []byte(sampleOld), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(sampleNew), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-old", oldPath, "-new", newPath,
		"-faster", "BenchmarkParallelReliability/mc/w4<BenchmarkParallelReliability/mc/w1",
		"-faster", "BenchmarkAnytimeEstimate/adaptive/p0.02<BenchmarkAnytimeEstimate/fixed/p0.02",
		"-faster", "BenchmarkApply/delta/b1<BenchmarkApply/clone/b1@5",
		"-twins-json", twinsPath,
		"-markdown", mdPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(twinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Benchmarks []twin `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if len(artifact.Benchmarks) != 3 {
		t.Fatalf("want one entry per twin rule, got %+v", artifact.Benchmarks)
	}
	for _, tw := range artifact.Benchmarks {
		if tw.Speedup < 5 {
			t.Errorf("artifact entry %s: speedup %v, want >= 5", tw.Name, tw.Speedup)
		}
		if strings.Contains(tw.Name, "/adaptive/") && tw.SamplesSavedFrac < 0.9 {
			t.Errorf("anytime entry saved %v of the budget, want >= 0.9", tw.SamplesSavedFrac)
		}
	}
	if md, err := os.ReadFile(mdPath); err != nil || !strings.Contains(string(md), "Bench gate: PASS") {
		t.Fatalf("summary wrong (%v):\n%s", err, md)
	}

	// A factor the new results cannot meet must fail the gate.
	stderr.Reset()
	if code := run([]string{"-new", newPath, "-faster", "BenchmarkApply/delta/b1<BenchmarkApply/clone/b1@50"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unmeetable factor run = %d, want 1; stderr: %s", code, stderr.String())
	}

	// Regression: threshold 0 makes the +1% drift on st/mc fail.
	stderr.Reset()
	if code := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "0"}, &stdout, &stderr); code != 1 {
		t.Fatalf("regression run = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "regressed") {
		t.Fatalf("missing regression diagnostic: %s", stderr.String())
	}

	// Inverted assertion must fail even without a baseline.
	stderr.Reset()
	if code := run([]string{"-new", newPath, "-faster", "BenchmarkParallelReliability/mc/w1<BenchmarkParallelReliability/mc/w4"}, &stdout, &stderr); code != 1 {
		t.Fatalf("inverted faster run = %d, want 1", code)
	}

	// Usage errors exit 2.
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("missing -new run = %d, want 2", code)
	}
	if code := run([]string{"-new", filepath.Join(dir, "absent.txt")}, &stdout, &stderr); code != 2 {
		t.Fatalf("absent file run = %d, want 2", code)
	}
	empty := filepath.Join(dir, "empty.txt")
	os.WriteFile(empty, []byte("PASS\n"), 0o644)
	if code := run([]string{"-new", empty}, &stdout, &stderr); code != 2 {
		t.Fatalf("empty file run = %d, want 2", code)
	}
	if code := run([]string{"-new", newPath, "-faster", "no-angle"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad faster spec run = %d, want 2", code)
	}
}
