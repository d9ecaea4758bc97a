package entity

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"jxplain/internal/dataset"
)

// randomBag generates sets with clustered structure (a few "families"
// plus noise) so Bimax iterations see real sub/overlap/disjoint mixes,
// including duplicates and occasional empty sets.
func randomBag(r *rand.Rand, n int) []KeySet {
	families := 1 + r.Intn(4)
	sets := make([]KeySet, n)
	for i := range sets {
		if r.Intn(20) == 0 {
			sets[i] = KeySet{} // empty set: subset of everything
			continue
		}
		base := r.Intn(families) * 10
		var ids []int
		for b := 0; b < 10; b++ {
			if r.Intn(2) == 0 {
				ids = append(ids, base+b)
			}
		}
		if r.Intn(4) == 0 {
			ids = append(ids, 100+r.Intn(3)) // shared keys across families
		}
		if r.Intn(6) == 0 {
			ids = append(ids, 64*(1+r.Intn(3))) // cross word boundaries
		}
		sets[i] = NewKeySet(ids...)
	}
	return sets
}

func TestIndexPostings(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		sets := randomBag(r, 1+r.Intn(80))
		ix := NewIndex(sets)
		// Every posting entry's set contains the key; every set's keys
		// reach their posting lists; empties are tracked separately.
		counts := map[int]int{}
		for k, pl := range ix.postings {
			for _, id := range pl {
				if !sets[id].Contains(k) {
					t.Fatalf("posting[%d] holds set %d which lacks key %d", k, id, k)
				}
				counts[int(id)]++
			}
		}
		nEmpty := 0
		for id, s := range sets {
			if s.Empty() {
				nEmpty++
				continue
			}
			if counts[id] != s.Len() {
				t.Fatalf("set %d appears in %d posting lists, has %d keys", id, counts[id], s.Len())
			}
		}
		if len(ix.empties) != nEmpty {
			t.Fatalf("empties = %d, want %d", len(ix.empties), nEmpty)
		}
	}
}

func TestIndexCandidatesMatchIntersects(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		sets := randomBag(r, 1+r.Intn(60))
		ix := NewIndex(sets)
		dead := make([]bool, len(sets))
		for i := range dead {
			dead[i] = r.Intn(3) == 0
		}
		q := randomBag(r, 1)[0]
		got := ix.Candidates(q, func(id int32) bool { return !dead[id] }, nil)
		want := map[int]bool{}
		for id, s := range sets {
			if !dead[id] && (s.Intersects(q) || s.Empty()) {
				want[id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("candidates %v, want %v (q=%v)", got, want, q.IDs())
		}
		for _, id := range got {
			if !want[int(id)] {
				t.Fatalf("unexpected candidate %d (q=%v)", id, q.IDs())
			}
			if !ix.Marked(int(id)) {
				t.Fatalf("candidate %d not marked", id)
			}
		}
	}
}

// clustersEqual compares cluster slices structurally, including order.
func clustersEqual(a, b []Cluster) bool {
	if !sameClusterStructure(a, b) {
		return false
	}
	for i := range a {
		if a[i].Weight != b[i].Weight {
			return false
		}
	}
	return true
}

// sameClusterStructure compares Max and Members, in order, ignoring
// weights.
func sameClusterStructure(a, b []Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Max.Equal(b[i].Max) || len(a[i].Members) != len(b[i].Members) {
			return false
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				return false
			}
		}
	}
	return true
}

// TestBimaxIndexedMatchesRef pins the tentpole invariant: the posting-
// index Bimax loop is a pure reimplementation — order array and emitted
// clusters are identical to the quadratic reference on arbitrary input.
func TestBimaxIndexedMatchesRef(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sets := randomBag(r, r.Intn(200))

		refOrder := sizeDescending(sets)
		var refClusters []Cluster
		bimaxSortRef(sets, refOrder, &refClusters, nil)

		ixOrder := sizeDescending(sets)
		var ixClusters []Cluster
		bimaxSortIndexed(sets, ixOrder, &ixClusters, nil)

		for i := range refOrder {
			if refOrder[i] != ixOrder[i] {
				return false
			}
		}
		return clustersEqual(refClusters, ixClusters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGreedyMergeIndexedMatchesRef pins the indexed cover search to the
// rescanning reference across randomized clusterings.
func TestGreedyMergeIndexedMatchesRef(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sets := randomBag(r, r.Intn(150))
		naive := BimaxNaive(sets)

		ref := GreedyMergeRef(naive)
		cs := newCoverState(naive)
		indexed := greedyMerge(naive, cs.findCover)
		return clustersEqual(ref, indexed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFindCoverIndexedMatchesRef drives the two cover searches directly
// with adversarial active masks and repeated calls against the same state
// (exercising posting compaction and scratch reuse).
func TestFindCoverIndexedMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		sets := randomBag(r, 2+r.Intn(60))
		naive := BimaxNaive(sets)
		if len(naive) == 0 {
			continue
		}
		work := make([]Cluster, len(naive))
		copy(work, naive)
		active := make([]bool, len(naive))
		for i := range active {
			active[i] = r.Intn(4) != 0
		}
		cs := newCoverState(naive)
		for q := 0; q < 5; q++ {
			target := work[r.Intn(len(work))].Max
			if r.Intn(3) == 0 {
				target = target.Union(work[r.Intn(len(work))].Max)
			}
			refCover := findCoverRef(work, active, target)
			ixCover := cs.findCover(work, active, target)
			if len(refCover) != len(ixCover) {
				t.Fatalf("cover lengths differ: ref %v indexed %v", refCover, ixCover)
			}
			for i := range refCover {
				if refCover[i] != ixCover[i] {
					t.Fatalf("covers differ: ref %v indexed %v", refCover, ixCover)
				}
			}
			// Deactivate the cover like GreedyMerge would (monotone).
			for _, ci := range refCover {
				active[ci] = false
			}
		}
	}
}

// TestDiscoverEntitiesMatchesReferenceOnWideData runs the weighted,
// posting-index pipeline against the quadratic reference (size-sorted
// Bimax with full rescans, then the rescanning GreedyMerge) over the wide
// scaling family at 5% of its default size and at 4× that. The
// clusterings must agree in structure — Max and Members, in order;
// weights are excluded because the unweighted reference counts member
// sets, not records — and the indexed clusters' weights must add up to
// the record count.
func TestDiscoverEntitiesMatchesReferenceOnWideData(t *testing.T) {
	for _, g := range dataset.WideRegistry() {
		for _, mult := range []int{1, 4} {
			n := max(g.DefaultN/20, 20) * mult
			dict := NewDict()
			var sets []KeySet
			for _, rec := range g.Generate(n, 1) {
				obj, ok := rec.Value.(map[string]any)
				if !ok {
					t.Fatalf("%s emits non-object records", g.Name)
				}
				names := make([]string, 0, len(obj))
				for k := range obj {
					names = append(names, k)
				}
				sort.Strings(names)
				sets = append(sets, KeySetOf(dict, names...))
			}
			w, _ := DedupKeySets(sets)

			got := DiscoverEntities(w, true)
			if want := GreedyMergeRef(BimaxNaiveRef(w.Sets)); !sameClusterStructure(got, want) {
				t.Fatalf("%s ×%d: indexed clustering (%d clusters) diverges from the reference (%d clusters)",
					g.Name, mult, len(got), len(want))
			}
			total := 0
			for _, c := range got {
				total += c.Weight
			}
			if total != len(sets) {
				t.Fatalf("%s ×%d: cluster weights sum to %d, want %d records", g.Name, mult, total, len(sets))
			}
		}
	}
}

func BenchmarkBimaxNaive(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	sets := randomBag(r, 2000)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BimaxNaiveRef(sets)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BimaxNaive(sets)
		}
	})
}
