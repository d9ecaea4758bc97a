package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// validName is the metric-name rule of the result format.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validUnit is the unit rule of the result format.
var validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func span(id, parent int, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "op", 0, 100),
		span(2, 1, "ingest.Each", 10, 60),
		span(3, 2, "core.AddBag", 20, 30),
		span(4, 2, "core.AddBag", 40, 45),
		// Concurrent children overlap: their union (70..95) counts once.
		span(5, 1, "jxshard.map", 70, 90),
		span(6, 1, "jxshard.map", 75, 95),
		// A child sticking out of its parent only covers the overlap.
		span(7, 3, "inner", 25, 40),
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 25, 2: 50 - 15, 3: 10 - 5, 4: 5, 5: 20, 6: 20, 7: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestLayerMetrics(t *testing.T) {
	s := func(id, parent int, name string, start, end int64, allocs uint64) Span {
		sp := span(id, parent, name, start, end)
		sp.Allocs = allocs
		return sp
	}
	const ms = int64(1e6)
	tr := opTrace{
		Spans: []Span{
			s(1, 0, "op", 0, 1000*ms, 0),
			s(2, 1, "ingest.Each", 0, 500*ms, 0),
			s(3, 2, "core.AddBag", 100*ms, 200*ms, 10),
			s(4, 2, "core.AddBag", 300*ms, 350*ms, 5),
			s(5, 1, "core.Stats", 500*ms, 600*ms, 7),
			s(6, 1, "core.Finish", 600*ms, 900*ms, 100),
			s(7, 1, "jxshard.map", 0, 300*ms, 0),
			s(8, 1, "jxshard.map", 0, 100*ms, 0),
		},
		Counters: map[string]float64{"core.paths": 26},
	}
	m := layerMetrics(tr, 50e6)
	want := map[string]float64{
		"ingest.fold_s":      0.5,
		"ingest.wait_s":      0.35,
		"ingest.mb_s":        100,
		"ingest.chunks":      2,
		"core.addbag_s":      0.15,
		"core.addbag.allocs": 15,
		"core.stats_s":       0.1,
		"core.synth_s":       0.2, // derived: Finish 0.3 minus Stats 0.1
		"core.synth.allocs":  93,
		"jxshard.map_max_s":  0.3,
		"jxshard.map_skew":   1.5,
		"core.paths":         26,
	}
	for k, w := range want {
		if math.Abs(m[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], w)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true}, // p99.9 leaves 1 beyond, p99 leaves 10
		{500, 98, 10, true},  // p99 leaves 5, p98 leaves 10
		{100, 90, 10, true},  // p95 leaves 5
		{40, 75, 10, true},   // p90 leaves 4
		{21, 50, 10, true},   // p50 of 21 is the 11th, 10 beyond
		{19, 0, 0, false},    // p50 leaves 9: nothing qualifies
		{0, 0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(seq(c.n))
		if ok != c.ok || got.Percentile != c.pct || got.Beyond != c.beyond {
			t.Errorf("n=%d: got %+v ok=%v, want p%g with %d beyond ok=%v", c.n, got, ok, c.pct, c.beyond, c.ok)
		}
		if ok && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, got.Beyond, got.Percentile)
		}
	}
	// Ties at the percentile value are not beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 12; i++ {
		xs[i] = 2
	}
	if got, ok := tailPercentile(xs); !ok || got.Percentile != 75 || got.Value != 1 || got.Beyond != 12 {
		t.Errorf("ties: got %+v ok=%v, want p75 = 1 with 12 beyond", got, ok)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.25); got != 1.75 {
		t.Errorf("p25 = %v, want 1.75", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

// small returns a copy of w with every phase cut to n records.
func small(w *workload, n int) *workload {
	c := *w
	c.phases = nil
	for _, p := range w.phases {
		c.phases = append(c.phases, phase{p.dataset, n})
	}
	return &c
}

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		sw := small(w, 40)
		var a, b, c bytes.Buffer
		if err := generate(sw, 7, &a); err != nil {
			t.Fatal(err)
		}
		if err := generate(sw, 7, &b); err != nil {
			t.Fatal(err)
		}
		if err := generate(sw, 8, &c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: same seed generated different bytes", w.name)
		}
		if bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Errorf("%s: different seeds generated the same bytes", w.name)
		}
		if lines := bytes.Count(a.Bytes(), []byte{'\n'}); lines != sw.records() {
			t.Errorf("%s: %d lines, want %d", w.name, lines, sw.records())
		}
	}
}

func TestSplitShardsFollowsQuotas(t *testing.T) {
	lines := [][]byte{[]byte("aaaa"), []byte("b"), []byte("cc"), []byte("dddddd"), []byte("e")}
	// 5+2+3+7+2 = 19 bytes: shard 0 takes records until 9 bytes (19/2)
	// were written.
	got := splitShards(lines, 2)
	if len(got[0]) != 3 || len(got[1]) != 2 {
		t.Errorf("split %d/%d records, want 3/2", len(got[0]), len(got[1]))
	}
}

func TestLiveReferenceWindows(t *testing.T) {
	w, err := workloadByName("live")
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := generate(small(w, 300), 3, &in); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(in.Bytes()), []byte{'\n'})
	out, sum, err := reference(w, lines)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != len(lines) || len(out) == 0 {
		t.Errorf("reference over %d lines: %+v, %d bytes", len(lines), sum, len(out))
	}
}

// benchmarkFile is BENCHMARK.json as this package reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(m.name) {
			t.Errorf("invalid metric name %q", m.name)
		}
		if !validUnit.MatchString(m.unit) {
			t.Errorf("%s: invalid unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "ü"} {
		if validName.MatchString(bad) {
			t.Errorf("name %q should be invalid", bad)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if e := f.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, want %s in %s with a bound in (0, 0.25]", i, e, m.name, m.unit)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, want %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := f.PerLayer[i]; e.Name != m.name || e.Unit != m.unit {
			t.Errorf("per_layer %d: %+v, want %s in %s", i, e, m.name, m.unit)
		}
	}
}
