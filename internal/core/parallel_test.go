package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"jxplain/internal/dist"
	"jxplain/internal/entity"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

func pathStatsEqual(a, b []PathStat) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Path != b[i].Path || a[i].Kind != b[i].Kind || a[i].Decision != b[i].Decision {
			return fmt.Sprintf("row %d: %+v vs %+v", i, a[i], b[i])
		}
		if math.Abs(a[i].Evidence.KeyEntropy-b[i].Evidence.KeyEntropy) > 1e-9 ||
			a[i].Evidence.Similar != b[i].Evidence.Similar ||
			a[i].Evidence.Records != b[i].Evidence.Records ||
			a[i].Evidence.DistinctKeys != b[i].Evidence.DistinctKeys {
			return fmt.Sprintf("row %d evidence: %+v vs %+v", i, a[i].Evidence, b[i].Evidence)
		}
	}
	return ""
}

// partitionedStats is pass ① as the per-partition-trie fold: the types
// split into k contiguous parts, each folded into its own PathSketch
// concurrently, the parts merged in order.
func partitionedStats(types []*jsontype.Type, k int, cfg Config) []PathStat {
	return dist.Fold(types, k,
		NewPathSketch,
		func(s *PathSketch, ty *jsontype.Type) *PathSketch { s.Add(ty); return s },
		func(a, b *PathSketch) *PathSketch { a.Merge(b); return a }).Stats(cfg)
}

func TestParallelPathStatsMatchesSequential(t *testing.T) {
	bag := bagFrom(t,
		`{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}`,
		`{"ts":8,"event":"serve","files":["a.txt","b.txt"]}`,
		`{"ts":9,"event":"login","user":{"name":"eve","geo":[3.0,4.5]}}`,
	)
	seq := CollectPathStats(bag, Default())
	// bag.Types() is deduplicated; rebuild the full slice for fairness.
	var types []*jsontype.Type
	bag.Each(func(ty *jsontype.Type, n int) {
		for i := 0; i < n; i++ {
			types = append(types, ty)
		}
	})
	par := partitionedStats(types, 3, Default())
	if diff := pathStatsEqual(seq, par); diff != "" {
		t.Errorf("parallel diverges: %s", diff)
	}
}

func TestParallelPathStatsCollectionMerging(t *testing.T) {
	// A collection-like object must produce identical wildcard descent.
	var types []*jsontype.Type
	for i := 0; i < 60; i++ {
		src := fmt.Sprintf(`{"m":{"k%d":{"inner":1},"k%d":{"inner":2}}}`, i%31, (i+9)%31)
		types = append(types, ty(t, src))
	}
	bag := &jsontype.Bag{}
	for _, typ := range types {
		bag.Add(typ)
	}
	seq := CollectPathStats(bag, Default())
	for _, workers := range []int{1, 2, 5, 16} {
		par := partitionedStats(types, workers, Default())
		if diff := pathStatsEqual(seq, par); diff != "" {
			t.Errorf("workers=%d: %s", workers, diff)
		}
	}
}

func TestParallelPathStatsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		var types []*jsontype.Type
		n := 5 + r.Intn(60)
		for i := 0; i < n; i++ {
			types = append(types, randomRecord(r))
		}
		bag := &jsontype.Bag{}
		for _, typ := range types {
			bag.Add(typ)
		}
		seq := CollectPathStats(bag, Default())
		par := partitionedStats(types, 1+r.Intn(7), Default())
		if diff := pathStatsEqual(seq, par); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

// randomRecord builds records with mixed tuples, collections, arrays and
// primitives, including conflicting kinds at shared paths.
func randomRecord(r *rand.Rand) *jsontype.Type {
	rec := map[string]any{"id": float64(r.Intn(100))}
	if r.Intn(2) == 0 {
		rec["geo"] = []any{r.Float64(), r.Float64()}
	}
	if r.Intn(3) == 0 {
		m := map[string]any{}
		for i := 0; i < 1+r.Intn(5); i++ {
			m[fmt.Sprintf("key%d", r.Intn(40))] = float64(r.Intn(10))
		}
		rec["counts"] = m
	}
	if r.Intn(3) == 0 {
		tags := make([]any, r.Intn(6))
		for i := range tags {
			tags[i] = "t"
		}
		rec["tags"] = tags
	}
	if r.Intn(4) == 0 {
		rec["mixed"] = []any{1.0, "s", true}[r.Intn(3)]
	}
	if r.Intn(5) == 0 {
		rec["v"] = map[string]any{"a": 1.0}
	} else if r.Intn(5) == 0 {
		rec["v"] = []any{1.0}
	}
	return jsontype.MustFromValue(rec)
}

func TestParallelCollectPathStatsBagMatches(t *testing.T) {
	bag := &jsontype.Bag{}
	bag.AddN(ty(t, `{"a":1,"b":"x"}`), 7)
	bag.AddN(ty(t, `{"a":2}`), 3)
	bag.Add(ty(t, `{"c":[1,2,3]}`))
	seq := CollectPathStats(bag, Default())
	par := sketchFromBag(bag, 3).Stats(Default())
	if diff := pathStatsEqual(seq, par); diff != "" {
		t.Errorf("bag variant diverges: %s", diff)
	}
}

func TestBuildFeatureSetDirect(t *testing.T) {
	bag := bagFrom(t,
		`{"a":1,"m":{"k1":1,"k2":2},"geo":[1.0,2.0]}`,
		`{"a":2,"m":{"k3":3},"geo":[3.0,4.0]}`,
		`{"a":3,"m":{"k4":4,"k5":5,"k6":6},"geo":[5.0,6.0]}`,
	)
	pruned := BuildFeatureSet(bag, Default(), true, entity.Sparse)
	raw := BuildFeatureSet(bag, Default(), false, entity.Sparse)
	// With the m collection pruned, all three records share one vector
	// {.a, .m, .geo, .geo[0], .geo[1]}.
	if pruned.Distinct() != 1 {
		t.Errorf("pruned distinct = %d", pruned.Distinct())
	}
	if raw.Distinct() != 3 {
		t.Errorf("raw distinct = %d", raw.Distinct())
	}
	if pruned.MemoryBytes() >= raw.MemoryBytes() {
		t.Error("pruning should reduce memory")
	}
	if pruned.Total() != 3 {
		t.Errorf("total = %d", pruned.Total())
	}
	// Primitive records contribute no vectors.
	primBag := jsontype.NewBag(jsontype.Number, jsontype.String)
	if fs := BuildFeatureSet(primBag, Default(), true, entity.Dense); fs.Total() != 0 {
		t.Error("primitives have no feature vectors")
	}
}

func TestParallelPathStatsEmptyAndPrimitive(t *testing.T) {
	if got := partitionedStats(nil, 4, Default()); len(got) != 0 {
		t.Error("no records → no stats")
	}
	prim := []*jsontype.Type{jsontype.Number, jsontype.String}
	if got := partitionedStats(prim, 2, Default()); len(got) != 0 {
		t.Error("primitive-only records have no complex paths")
	}
}

func TestParallelPathStatsOnDatasetShapes(t *testing.T) {
	// The detection-disabled configs must also agree.
	cfgs := []Config{Default(), KReduceConfig(), BimaxNaiveConfig()}
	bag := bagFrom(t,
		`{"a":{"x":1},"b":[[1,2],[3,4]],"c":"s"}`,
		`{"a":{"y":2},"b":[[5,6]],"c":"t"}`,
		`{"a":{"z":3},"b":[],"d":null}`,
	)
	var types []*jsontype.Type
	bag.Each(func(typ *jsontype.Type, n int) {
		for i := 0; i < n; i++ {
			types = append(types, typ)
		}
	})
	for _, cfg := range cfgs {
		seq := CollectPathStats(bag, cfg)
		par := partitionedStats(types, 4, cfg)
		if diff := pathStatsEqual(seq, par); diff != "" {
			t.Errorf("cfg %v: %s", cfg.Partition, diff)
		}
	}
}

func TestFanOutWidthCutover(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		cases := []struct{ distinct, want int }{
			{0, 1},
			{1, 1},
			{ParallelCutover - 1, 1},
			{ParallelCutover, procs},
			{ParallelCutover + 1, procs},
			{10 * ParallelCutover, procs},
		}
		for _, c := range cases {
			if got := fanOutWidth(c.distinct); got != c.want {
				t.Errorf("GOMAXPROCS=%d: fanOutWidth(%d) = %d, want %d", procs, c.distinct, got, c.want)
			}
		}
	}
}

func TestPipelineParallelAboveCutoverMatchesSequential(t *testing.T) {
	// Enough distinct record types to clear the cutover, so at
	// GOMAXPROCS > 1 the pass-① fold and the pass-②/③ pool genuinely fan
	// out and must still produce the schema of the GOMAXPROCS=1 run.
	if testing.Short() {
		t.Skip("builds a bag above the parallel cutover")
	}
	bag := &jsontype.Bag{}
	for i := 0; i < ParallelCutover+16; i++ {
		src := fmt.Sprintf(`{"id":%d,"v%d":1}`, i, i%5000)
		bag.Add(ty(t, src))
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial := Pipeline(bag, Default())
	runtime.GOMAXPROCS(4)
	parallel := Pipeline(bag, Default())
	if !schema.Equal(serial, parallel) {
		t.Error("parallel synthesis above the cutover changed the schema")
	}
}
