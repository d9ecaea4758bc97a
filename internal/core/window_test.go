package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"jxplain/internal/jsontype"
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
