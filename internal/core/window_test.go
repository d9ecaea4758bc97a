package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/entropy"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
	"jxplain/internal/stats"
)

func windowRec(tb testing.TB, i int) *jsontype.Type {
	tb.Helper()
	t, err := jsontype.FromValue(map[string]any{fmt.Sprintf("w%03d", i): 1.0})
	if err != nil {
		tb.Fatalf("windowRec: %v", err)
	}
	return t
}

func boundsConfig(b Bounds) Config {
	cfg := Default()
	cfg.Bounds = b
	return cfg
}

// In the no-eviction, no-window regime a bounded accumulator must be an
// exact accumulator: same schema bytes, same totals.
func TestBoundedAccumulatorExactRegime(t *testing.T) {
	exact := NewAccumulator(Default())
	bounded := NewAccumulator(boundsConfig(Bounds{ReservoirCapacity: 64}))
	for i := 0; i < 200; i++ {
		ty := windowRec(t, i%20)
		exact.AddN(ty, 1+i%3)
		bounded.AddN(ty, 1+i%3)
	}
	if bounded.Records() != exact.Records() || bounded.Distinct() != exact.Distinct() {
		t.Fatalf("totals diverge: bounded (%d, %d) vs exact (%d, %d)",
			bounded.Records(), bounded.Distinct(), exact.Records(), exact.Distinct())
	}
	if !bytes.Equal(schemaBytes(t, bounded.Finish()), schemaBytes(t, exact.Finish())) {
		t.Fatal("schema bytes diverge in the exact regime")
	}
}

// A window ring retains only the recent horizon: paths seen exclusively
// in expired windows drop out of the derived statistics.
func TestWindowRingForgetsRetiredPaths(t *testing.T) {
	acc := NewAccumulator(boundsConfig(Bounds{WindowRecords: 100, WindowCount: 2}))
	old := jsontype.MustFromValue(map[string]any{"retired": map[string]any{"x": 1.0}})
	fresh := jsontype.MustFromValue(map[string]any{"live": map[string]any{"y": "s"}})
	for i := 0; i < 100; i++ {
		acc.Add(old)
	}
	for i := 0; i < 400; i++ {
		acc.Add(fresh)
	}

	if got := acc.WindowsClosed(); got != 5 {
		t.Fatalf("windows closed = %d, want 5", got)
	}
	// Ring of 2 + empty live epoch: the horizon is the last 200 records,
	// all of them fresh.
	if got := acc.statsSketch().Records(); got != 200 {
		t.Fatalf("horizon records = %d, want 200", got)
	}
	for _, st := range acc.Stats() {
		if strings.Contains(st.Path, "retired") {
			t.Fatalf("retired path still in stats: %s", st.Path)
		}
	}
}

func TestWindowCloseHookObservesEveryRotation(t *testing.T) {
	acc := NewAccumulator(boundsConfig(Bounds{WindowRecords: 10, WindowCount: 3}))
	var indices, records []int
	acc.OnWindowClose(func(index, n int, sketch *PathSketch) {
		indices = append(indices, index)
		records = append(records, n)
		if sketch.Records() != n {
			t.Fatalf("window %d: sketch records %d != reported %d", index, sketch.Records(), n)
		}
	})
	for i := 0; i < 45; i++ {
		acc.Add(windowRec(t, i%4))
	}
	if len(indices) != 4 {
		t.Fatalf("hook fired %d times, want 4: %v", len(indices), indices)
	}
	for i, idx := range indices {
		if idx != i || records[i] != 10 {
			t.Fatalf("rotation %d: index=%d records=%d", i, idx, records[i])
		}
	}
}

// Deriving stats from the ring must not consume the live epoch: repeated
// Stats calls interleaved with adds keep working and see the additions.
func TestRingStatsDoNotConsumeLive(t *testing.T) {
	acc := NewAccumulator(boundsConfig(Bounds{WindowRecords: 100, WindowCount: 2}))
	for i := 0; i < 150; i++ {
		acc.Add(windowRec(t, i%7))
	}
	if len(acc.Stats()) == 0 {
		t.Fatal("no stats from ring rollup")
	}
	before := acc.statsSketch().Records()
	for i := 0; i < 30; i++ {
		acc.Add(windowRec(t, i%7))
	}
	after := acc.statsSketch().Records()
	if after != before+30 {
		t.Fatalf("live epoch lost adds across rollup: %d -> %d", before, after)
	}
	if len(acc.Stats()) == 0 {
		t.Fatal("no stats after second rollup")
	}
}

func TestPathSketchDecayCompacts(t *testing.T) {
	s := NewPathSketch()
	heavy := jsontype.MustFromValue(map[string]any{"heavy": map[string]any{"deep": []any{1.0}}})
	light := jsontype.MustFromValue(map[string]any{"light": map[string]any{"deep": []any{"s"}}})
	s.AddN(heavy, 1000)
	s.AddN(light, 1)
	full := s.Nodes()
	s.Decay(0.5)
	if s.Records() != 500 {
		t.Fatalf("records = %d, want 500", s.Records())
	}
	if got := s.Nodes(); got >= full {
		t.Fatalf("decay reclaimed nothing: %d -> %d nodes", full, got)
	}
	for _, st := range s.Stats(Default()) {
		if strings.Contains(st.Path, "light") {
			t.Fatalf("decayed-out path survives: %s", st.Path)
		}
	}
	// Decaying everything to zero compacts down to the bare root.
	for i := 0; i < 20; i++ {
		s.Decay(0.5)
	}
	if got := s.Nodes(); got != 1 {
		t.Fatalf("fully decayed sketch holds %d nodes, want 1", got)
	}
}

// Decay-only mode (rotation cadence without a ring) keeps a churn
// stream's trie bounded: keys that stop appearing decay out.
func TestDecayBoundsChurnTrie(t *testing.T) {
	acc := NewAccumulator(boundsConfig(Bounds{
		ReservoirCapacity: 32, WindowRecords: 100, DecayFactor: 0.5,
	}))
	exact := NewAccumulator(Default())
	for i := 0; i < 3000; i++ {
		ty := windowRec(t, i) // pure churn: every record a fresh key
		acc.Add(ty)
		exact.Add(ty)
		if d := acc.Reservoir().Distinct(); d > 32 {
			t.Fatalf("reservoir over capacity at i=%d: %d", i, d)
		}
	}
	bounded, unbounded := acc.SketchNodes(), exact.SketchNodes()
	// Singleton keys floor to zero at the first rotation after their
	// window, so the live trie tracks the last couple of cadences (~200
	// keys), not the 3000-key history.
	if bounded > 500 {
		t.Fatalf("decayed trie grew to %d nodes", bounded)
	}
	if unbounded < 4*bounded {
		t.Fatalf("exact trie (%d nodes) should dwarf the decayed one (%d)", unbounded, bounded)
	}
	// The bounded accumulator still synthesizes a usable schema.
	if len(schemaBytes(t, acc.Finish())) == 0 {
		t.Fatal("bounded Finish returned empty schema")
	}
}

// ReducePathSketches must reproduce the sequential fold at every worker
// count (the treeCombine order-preservation contract); its width follows
// GOMAXPROCS.
func TestReducePathSketchesMatchesSequential(t *testing.T) {
	chunks := lawSketchChunks()
	var files [][]byte
	seq := NewPathSketch()
	for _, chunk := range chunks {
		s := sketchOf(chunk)
		data, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
		seq.Merge(sketchOf(chunk))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := ReducePathSketches(files)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		requireSameSketch(t, got, seq)
	}
}

func TestReducePathSketchesEmptyAndCorrupt(t *testing.T) {
	empty, err := ReducePathSketches(nil)
	if err != nil || empty.Records() != 0 {
		t.Fatalf("empty reduce: %v, records=%d", err, empty.Records())
	}
	good, err := sketchOf(lawSketchChunks()[0]).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReducePathSketches([][]byte{good, good, []byte("garbage")})
	var merr *SketchMergeError
	if !errors.As(err, &merr) || merr.Index != 2 {
		t.Fatalf("want *SketchMergeError{Index: 2}, got %v", err)
	}
}

// A bounded accumulator round-trips through the wire format as its
// snapshot: the retained types survive, and the decoded side keeps
// operating under the same bounds.
func TestBoundedAccumulatorWireSnapshot(t *testing.T) {
	cfg := boundsConfig(Bounds{ReservoirCapacity: 16, WindowRecords: 50, WindowCount: 2})
	acc := NewAccumulator(cfg)
	for i := 0; i < 400; i++ {
		acc.Add(windowRec(t, i%40))
	}
	data, err := acc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalAccumulator(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Distinct() != acc.Distinct() {
		t.Fatalf("distinct diverges after round trip: %d vs %d", back.Distinct(), acc.Distinct())
	}
	if len(schemaBytes(t, back.Finish())) == 0 {
		t.Fatal("decoded bounded accumulator cannot synthesize")
	}
	// And a bounded reducer folds unbounded map outputs within its cap.
	mapSide := NewAccumulator(Default())
	for i := 0; i < 100; i++ {
		mapSide.Add(windowRec(t, 100+i))
	}
	shard, err := mapSide.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	red, err := ReduceSketches([][]byte{shard, data}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := red.Distinct(); d > 16 {
		t.Fatalf("bounded reducer over capacity: %d", d)
	}
}

// The bounded-stream flat-state checks drive a churn stream: every record
// pairs a stable "service" tuple with a never-repeating session key, so
// distinct structure grows linearly with the stream. Fed at 1×, 2×, 5×
// and 10× a memory budget, the bounded accumulator (reservoir, window
// ring sized to the budget, decay) must hold its state flat while the
// exact accumulator grows.
const (
	churnCapacity   = 64  // reservoir capacity
	churnRingWidth  = 4   // closed windows; the cadence is budget/width
	churnDecay      = 0.5 // reservoir decay per rotation
	churnFlatFactor = 1.5 // max bounded trie growth from 1× to 10×
	churnGrowFactor = 4.0 // min exact-over-bounded trie nodes at 10×
	// churnHeapSlopeShare caps the bounded mode's peak-heap growth from 1×
	// to 10× as a share of the exact mode's. The absolute watermark cannot
	// be flat — the append-only type interner grows with every distinct
	// type in either mode — but that term is common to both slopes.
	churnHeapSlopeShare = 0.6
)

var churnScales = []int{1, 2, 5, 10}

// churnRecord renders record i of the churn stream as one JSONL line.
func churnRecord(i int) []byte {
	return []byte(fmt.Sprintf(
		`{"service":{"region":"eu-1","build":%d,"flags":[true,false],"limits":{"cpu":1.5,"mem":4.0}},`+
			`"sess_%08d":{"hits":%d,"geo":[%d.0,2.0],"tags":{"env":"prod"}}}`+"\n",
		i%7, i, i%100, i%90))
}

// churnReader yields the first n churn records lazily, so a measured heap
// holds accumulator state rather than a materialized input.
type churnReader struct {
	i, n int
	buf  []byte
}

func (c *churnReader) Read(p []byte) (int, error) {
	for len(c.buf) < len(p) && c.i < c.n {
		c.buf = append(c.buf, churnRecord(c.i)...)
		c.i++
	}
	if len(c.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.buf)
	c.buf = c.buf[:copy(c.buf, c.buf[n:])]
	return n, nil
}

func churnBounds(budget int) Bounds {
	return Bounds{
		ReservoirCapacity: churnCapacity,
		WindowRecords:     budget / churnRingWidth,
		WindowCount:       churnRingWidth,
		DecayFactor:       churnDecay,
	}
}

// churnFold ingests n churn records in 64-record chunks into a fresh
// accumulator for cfg.
func churnFold(tb testing.TB, n int, cfg Config) *Accumulator {
	tb.Helper()
	acc := NewAccumulator(cfg)
	if _, err := ingest.Fold(context.Background(), &churnReader{n: n},
		ingest.Options{JSONL: true, ChunkSize: 64}, acc); err != nil {
		tb.Fatal(err)
	}
	return acc
}

// TestBoundedChurnStateStaysFlat checks the deterministic state counters
// on a 200-record budget: the bounded trie grows at most churnFlatFactor
// across a 10× longer stream, the reservoir never exceeds its capacity,
// and the exact trie outgrows the bounded one by churnGrowFactor (else
// the stream is not stressing exact state). Decay must also keep the
// reservoir on the ring's horizon: a churn type is seen once, so its
// count decays to zero at the second rotation after it was added, and
// every retained type is one of the last budget records.
func TestBoundedChurnStateStaysFlat(t *testing.T) {
	const budget = 200
	cfg := boundsConfig(churnBounds(budget))
	var firstNodes, lastNodes int
	for _, scale := range churnScales {
		n := scale * budget
		acc := churnFold(t, n, cfg)
		res := acc.Reservoir()
		if d := res.Distinct(); d > churnCapacity {
			t.Fatalf("%d× budget: reservoir retains %d types over capacity %d", scale, d, churnCapacity)
		}
		res.Each(func(ty *jsontype.Type, _ int) {
			for _, k := range ty.Keys() {
				if i, ok := strings.CutPrefix(k, "sess_"); ok {
					if rec, err := strconv.Atoi(i); err != nil || rec < n-budget {
						t.Fatalf("%d× budget: reservoir retains %s from before the last %d records", scale, k, budget)
					}
				}
			}
		})
		lastNodes = acc.SketchNodes()
		if firstNodes == 0 {
			firstNodes = lastNodes
		}
	}
	top := churnScales[len(churnScales)-1]
	if growth := float64(lastNodes) / float64(firstNodes); growth > churnFlatFactor {
		t.Fatalf("bounded trie grew %.2f× from %d× to %d× budget (%d → %d nodes, ceiling %.2f×)",
			growth, churnScales[0], top, firstNodes, lastNodes, churnFlatFactor)
	}
	exact := churnFold(t, top*budget, Default()).SketchNodes()
	t.Logf("bounded trie %d → %d nodes from %d× to %d× budget; exact %d nodes at %d×",
		firstNodes, lastNodes, churnScales[0], top, exact, top)
	if ratio := float64(exact) / float64(lastNodes); ratio < churnGrowFactor {
		t.Fatalf("exact trie is only %.2f× the bounded trie at %d× budget (want ≥ %.1f×)",
			ratio, top, churnGrowFactor)
	}
}

// TestBoundedChurnHeapSlope is the sampled-heap form of the flat-state
// claim at the full 4000-record budget: from 1× to 10× the budget, the
// bounded mode's peak heap may grow at most churnHeapSlopeShare of what
// the exact mode's grows. Too slow for -short, and the race detector's
// shadow memory distorts the heap it samples.
func TestBoundedChurnHeapSlope(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-scale sampled-heap check: skipped under -short and -race")
	}
	const budget = 4000
	bounded := boundsConfig(churnBounds(budget))
	peak := func(n int, cfg Config) float64 {
		sampler := stats.StartMemSampler(0)
		churnFold(t, n, cfg)
		return float64(sampler.Stop())
	}
	top := churnScales[len(churnScales)-1]
	// Bounded first at each length, so the exact run's larger garbage is
	// not charged to the bounded watermark.
	boundedSlope := -peak(budget, bounded)
	exactSlope := -peak(budget, Default())
	boundedSlope += peak(top*budget, bounded)
	exactSlope += peak(top*budget, Default())
	if exactSlope <= 0 {
		t.Fatalf("exact peak heap did not grow from 1× to %d× budget (%.0f bytes)", top, exactSlope)
	}
	share := boundedSlope / exactSlope
	t.Logf("bounded peak heap grew %.2f of the exact growth from 1× to %d× budget", share, top)
	if share > churnHeapSlopeShare {
		t.Fatalf("bounded peak heap grew %.2f of the exact growth from 1× to %d× budget (ceiling %.2f)",
			share, top, churnHeapSlopeShare)
	}
}

// TestBoundedDecisionAgreement reruns every registry dataset exact and
// bounded (reservoir of churnCapacity types, a ring of churnRingWidth
// windows spanning half the stream, decay) at 5% of its default size.
// Over the pass-① paths present in both runs, the mean share carrying the
// same tuple/collection decision must reach 0.80.
func TestBoundedDecisionAgreement(t *testing.T) {
	const floor = 0.80
	var sum float64
	gens := dataset.Registry()
	for _, g := range gens {
		types := dataset.Types(g.Generate(max(g.DefaultN/20, 20), 1))
		b := churnBounds(0)
		b.WindowRecords = max(len(types)/(2*churnRingWidth), 1)
		exact, bounded := NewAccumulator(Default()), NewAccumulator(boundsConfig(b))
		for _, ty := range types {
			exact.Add(ty)
			bounded.Add(ty)
		}
		decisions := make(map[string]entropy.Decision)
		for _, st := range exact.Stats() {
			decisions[st.Kind.String()+":"+st.Path] = st.Decision
		}
		shared, agree := 0, 0
		for _, st := range bounded.Stats() {
			if d, ok := decisions[st.Kind.String()+":"+st.Path]; ok {
				shared++
				if d == st.Decision {
					agree++
				}
			}
		}
		agreement := 1.0
		if shared > 0 {
			agreement = float64(agree) / float64(shared)
		}
		t.Logf("%s: %d/%d shared paths agree (%.3f)", g.Name, agree, shared, agreement)
		sum += agreement
	}
	if mean := sum / float64(len(gens)); mean < floor {
		t.Fatalf("mean bounded-vs-exact decision agreement %.3f below floor %.2f", mean, floor)
	}
}
