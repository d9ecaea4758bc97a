package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// passTwoDecider derives the pass-① decision tree of an accumulator and
// returns a sequential decider over it, before any plan is built.
func passTwoDecider(acc *Accumulator) *pipelineDecider {
	tree := acc.statsSketch().root.derive(RootPath, acc.cfg, nil)
	return &pipelineDecider{cfg: acc.cfg, tree: tree, plans: map[planKey]*partitionPlan{}}
}

// statsDecide answers the string extractor's questions from pass-① rows:
// the rows keyed by path, looked up below base by concatenation.
func statsDecide(stats []PathStat, base string) subtreeDecision {
	decisions := map[string]pathDecision{}
	for _, st := range stats {
		d := decisions[st.Path]
		if st.Kind == jsontype.KindArray {
			d.arr, d.hasArr = st.Decision, true
		} else {
			d.obj, d.hasObj = st.Decision, true
		}
		decisions[st.Path] = d
	}
	lookup := decisionLookup(decisions)
	return func(rel string, kind jsontype.Kind) entropy.Decision { return lookup(base+rel, kind) }
}

// requireSameFeatures checks, for every type of bag, that the walker's
// features rendered through their nodes equal the string extractor's
// paths (prefixed by base) element by element, and that their ids are the
// ids an entity.Dict assigns to those strings. It returns how many
// features took a handle outside inTree.
func requireSameFeatures(t *testing.T, where string, w *featureWalker, bag *jsontype.Bag, decide subtreeDecision, base string, inTree map[*pathNode]bool) int {
	t.Helper()
	local := 0
	dict := entity.NewDict()
	for _, typ := range bag.Types() {
		ids := w.features(typ)
		want := featurePaths(typ, decide, !w.keepNested)
		if len(ids) != len(want) {
			t.Fatalf("%s: %d handle features, featurePaths has %d", where, len(ids), len(want))
		}
		for i, id := range ids {
			if got := w.nodes[id].path; got != base+want[i] {
				t.Fatalf("%s: feature %d renders %q, featurePaths has %q", where, i, got, base+want[i])
			}
			if dictID := dict.ID(want[i]); dictID != id {
				t.Fatalf("%s: feature %q numbered %d, entity.Dict gives %d", where, want[i], id, dictID)
			}
			if !inTree[w.nodes[id]] {
				local++
			}
		}
	}
	return local
}

// TestFeatureWalkerMatchesFeaturePaths checks the handle walker against
// the string extractor at every partition point pass ② visits, on every
// generator: against pass ①'s tree for each configuration, and — under
// Default — against the recursive strategy's own detection walk of the
// point's bag, pruned and unpruned (Figure 5).
func TestFeatureWalkerMatchesFeaturePaths(t *testing.T) {
	sampled := Default()
	sampled.DetectionSample = 0.3
	reservoir := Default()
	reservoir.Bounds = Bounds{ReservoirCapacity: 64}
	windowed := Default()
	windowed.Bounds = Bounds{ReservoirCapacity: 64, WindowRecords: 50, WindowCount: 2}
	configs := []struct {
		name string
		cfg  Config
	}{{"default", Default()}, {"sample0.3", sampled}, {"reservoir64", reservoir}, {"windowed", windowed}}

	for _, c := range configs {
		localFeatures := 0
		for _, g := range dataset.Registry() {
			acc := NewAccumulator(c.cfg)
			for _, r := range g.Generate(300, 1) {
				acc.Add(r.Type)
			}
			d := passTwoDecider(acc)
			stats := acc.Stats()
			inTree := map[*pathNode]bool{}
			d.tree.each(func(n *pathNode) { inTree[n] = true })

			points := 0
			d.eachPoint(d.tree, acc.unionBag(), func(p *pathNode, _ bool, bag *jsontype.Bag) {
				points++
				where := fmt.Sprintf("%s/%s at %s", c.name, g.Name, p.path)
				localFeatures += requireSameFeatures(t, where, newFeatureWalker(p), bag, statsDecide(stats, p.path), p.path, inTree)
				if c.name != "default" {
					return
				}
				local := statsDecide(CollectPathStats(bag, c.cfg), RootPath)
				for _, keepNested := range []bool{false, true} {
					w := newFeatureWalker(subtreeDecisions(bag, c.cfg))
					w.keepNested = keepNested
					requireSameFeatures(t, fmt.Sprintf("%s (recursive, keepNested=%v)", where, keepNested), w, bag, local, "", nil)
				}
			})
			if points == 0 {
				t.Errorf("%s/%s: pass ② visited no partition point", c.name, g.Name)
			}
		}
		// Sampled detection and windowed horizons leave paths pass ① never
		// saw; those must take the local-handle route, and do here.
		if (c.name == "sample0.3" || c.name == "windowed") && localFeatures == 0 {
			t.Errorf("%s: no feature took a local handle; the config no longer covers unseen paths", c.name)
		}
	}
}

// TestPlanFallbackNumbersUnseenKeySetsApart pins the pass-③ fallback for
// types pass ② never saw at a partition point: unseen key sets met by
// separate calls must get distinct entity ids, so a later bag holding
// both still splits them.
func TestPlanFallbackNumbersUnseenKeySetsApart(t *testing.T) {
	acc := NewAccumulator(Default())
	acc.Add(ty(t, `{"x":1}`))
	d := passTwoDecider(acc)
	d.eachPoint(d.tree, acc.unionBag(), d.buildPlan)

	d.partitionObjects(d.tree, bagFrom(t, `{"a":1}`))
	d.partitionObjects(d.tree, bagFrom(t, `{"b":1}`))
	parts := d.partitionObjects(d.tree, bagFrom(t, `{"a":1}`, `{"b":1}`))
	if len(parts) != 2 {
		t.Fatalf("{a} and {b}, first met in separate calls, partition into %d parts, want 2 (plan: %+v)",
			len(parts), d.plans[planKey{RootPath, false}])
	}
	// A type with a key set the plan knows still joins its entity.
	parts = d.partitionObjects(d.tree, bagFrom(t, `{"a":1}`, `{"a":"s"}`))
	if len(parts) != 1 {
		t.Fatalf("two types sharing the unseen key set {a} split into %d parts, want 1", len(parts))
	}

	// Pass ③ partitions sibling subtrees concurrently: unseen key sets
	// met at the same time must still be numbered apart.
	const n = 8
	all := &jsontype.Bag{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		typ := ty(t, fmt.Sprintf(`{"k%d":1}`, i))
		all.Add(typ)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.partitionObjects(d.tree, jsontype.NewBag(typ))
		}()
	}
	wg.Wait()
	if parts := d.partitionObjects(d.tree, all); len(parts) != n {
		t.Fatalf("%d unseen key sets met concurrently partition into %d parts, want %d", n, len(parts), n)
	}
}

// nestedArrays returns the type of one record [[…[1]…]] with the given
// nesting depth.
func nestedArrays(t *testing.T, depth int) *jsontype.Type {
	return ty(t, strings.Repeat("[", depth)+"1"+strings.Repeat("]", depth))
}

// finishCost measures one Finish over a fresh accumulator holding typ:
// heap allocations and bytes, the minimum over a few repetitions so a
// stray background allocation cannot inflate a sample.
func finishCost(typ *jsontype.Type) (allocs, bytes uint64) {
	for rep := 0; rep < 3; rep++ {
		acc := NewAccumulator(Default())
		acc.Add(typ)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		acc.Finish()
		runtime.ReadMemStats(&after)
		a, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if rep == 0 || a < allocs {
			allocs = a
		}
		if rep == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// TestFinishDepthScaling is the nesting-depth acceptance of path handles:
// on one [[…1…]] record every level is a partition point whose features
// are all deeper levels, so rebuilding path strings per feature costs
// O(depth³) bytes. With handles, each doubling of depth may cost at most
// 2.5× the allocations and 4.5× the bytes (the features themselves are
// O(depth²)). Ratios, not budgets, so the bound holds under -race.
func TestFinishDepthScaling(t *testing.T) {
	depths := []int{128, 256, 512}
	allocs := make([]uint64, len(depths))
	bytes := make([]uint64, len(depths))
	for i, depth := range depths {
		allocs[i], bytes[i] = finishCost(nestedArrays(t, depth))
	}
	var report strings.Builder
	for i := 1; i < len(depths); i++ {
		ra := float64(allocs[i]) / float64(allocs[i-1])
		rb := float64(bytes[i]) / float64(bytes[i-1])
		fmt.Fprintf(&report, "depth %d→%d: allocs %d→%d (×%.2f), bytes %d→%d (×%.2f)\n",
			depths[i-1], depths[i], allocs[i-1], allocs[i], ra, bytes[i-1], bytes[i], rb)
		if ra > 2.5 || rb > 4.5 {
			t.Errorf("depth %d→%d: allocs ×%.2f (max 2.5), bytes ×%.2f (max 4.5)", depths[i-1], depths[i], ra, rb)
		}
	}
	t.Log("\n" + report.String())
}

// BenchmarkPipelineFinishTwitter times Accumulator.Finish — decision-tree
// derivation plus passes ② and ③ — over a twitter bag above
// ParallelCutover, the distinct-heavy shape where synthesis dominates.
// Each iteration finishes a fresh accumulator so the merge memo starts
// cold; folding the bag in is not timed.
func BenchmarkPipelineFinishTwitter(b *testing.B) {
	g, _ := dataset.ByName("twitter")
	bag := &jsontype.Bag{}
	for _, r := range g.Generate(16000, 1) {
		bag.Add(r.Type)
	}
	if bag.Distinct() < ParallelCutover {
		b.Fatalf("twitter bag has %d distinct types, want ≥ %d", bag.Distinct(), ParallelCutover)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		acc := NewAccumulator(Default())
		acc.AddBag(bag)
		b.StartTimer()
		finishSink = acc.Finish()
	}
}

var finishSink schema.Schema

// The string feature extractor: the §6.4 feature paths of a type, built
// by concatenating relative path strings and consulting decisions by
// string. It is the reference the handle walker is checked against.

// subtreeDecision answers tuple/collection for a path relative to the
// partition point ("" is the partition point itself).
type subtreeDecision func(rel string, kind jsontype.Kind) entropy.Decision

// featurePaths returns the feature path set of one type rooted at the
// partition point. The type's own kind decision is known to be Tuple
// (that is why it is being partitioned), so extraction starts at its
// children. When pruneNested is false, paths inside nested collections are
// retained verbatim (concrete keys and indices), reproducing the
// unoptimized preprocessing of Figure 5.
func featurePaths(t *jsontype.Type, decide subtreeDecision, pruneNested bool) []string {
	var out []string
	appendChildFeatures(t, "", decide, pruneNested, &out)
	return out
}

func appendChildFeatures(t *jsontype.Type, rel string, decide subtreeDecision, prune bool, out *[]string) {
	switch t.Kind() {
	case jsontype.KindObject:
		for _, f := range t.Fields() {
			p := childKeyPath(rel, f.Key)
			*out = append(*out, p)
			appendFeatures(f.Type, p, decide, prune, out)
		}
	case jsontype.KindArray:
		for i, e := range t.Elems() {
			p := arrayIndexPath(rel, i)
			*out = append(*out, p)
			appendFeatures(e, p, decide, prune, out)
		}
	default:
		// Primitive kinds have no children, hence no child features.
	}
}

func appendFeatures(t *jsontype.Type, rel string, decide subtreeDecision, prune bool, out *[]string) {
	switch t.Kind() {
	case jsontype.KindObject:
		if decide(rel, jsontype.KindObject) == entropy.Collection {
			if prune {
				return
			}
		}
		appendChildFeatures(t, rel, decide, prune, out)
	case jsontype.KindArray:
		if decide(rel, jsontype.KindArray) == entropy.Collection {
			if prune {
				return
			}
		}
		appendChildFeatures(t, rel, decide, prune, out)
	default:
		// Primitives are leaves: their own path was appended by the
		// parent, and there is nothing below to descend into.
	}
}

// decisionLookup adapts a decision map into a subtreeDecision. Paths
// missing from the map default to Tuple.
func decisionLookup(decisions map[string]pathDecision) subtreeDecision {
	return func(rel string, kind jsontype.Kind) entropy.Decision {
		d, ok := decisions[rel]
		if !ok {
			return entropy.Tuple
		}
		if kind == jsontype.KindArray {
			if d.hasArr {
				return d.arr
			}
			return entropy.Tuple
		}
		if d.hasObj {
			return d.obj
		}
		return entropy.Tuple
	}
}
