package core

import (
	"jxplain/internal/dist"
	"jxplain/internal/jsontype"
)

// PathSketch is the mergeable pass-① state: the per-path statistics
// Algorithm 5 needs (record and key-presence counters, array-length
// histograms, the similar-types constraint), organized as a trie over
// concrete paths. Sketches built over disjoint chunks of a collection and
// folded with Merge carry exactly the statistics a single pass over the
// whole collection would have produced, which is what lets the staged
// pipeline stream: a chunk source accumulates one sketch plus one
// deduplicated bag, so memory is proportional to distinct structure, not
// record count.
//
// The zero value is not ready; use NewPathSketch. A PathSketch is not safe
// for concurrent mutation; build per-worker sketches and Merge them.
type PathSketch struct {
	root    *statsTrie
	records int
}

// NewPathSketch returns an empty sketch.
func NewPathSketch() *PathSketch { return &PathSketch{root: newStatsTrie()} }

// Add folds one record type into the sketch.
//
//jx:hotpath
func (s *PathSketch) Add(t *jsontype.Type) { s.AddN(t, 1) }

// AddN folds n occurrences of one record type into the sketch.
//
//jx:hotpath
func (s *PathSketch) AddN(t *jsontype.Type, n int) {
	s.root.add(t, n)
	s.records += n
}

// AddBag folds every occurrence in the bag into the sketch.
func (s *PathSketch) AddBag(bag *jsontype.Bag) {
	bag.Each(func(t *jsontype.Type, n int) { s.AddN(t, n) })
}

// Merge folds other into s (the monoid operation). other must not be used
// afterwards: its trie nodes may be adopted by s.
//
//jx:hotpath
//jx:monoid consuming
func (s *PathSketch) Merge(other *PathSketch) {
	if other == nil {
		return
	}
	s.root.combine(other.root)
	s.records += other.records
}

// Records returns the number of record occurrences folded in.
func (s *PathSketch) Records() int { return s.records }

// Decay scales every additive counter in the sketch by factor (flooring)
// and compacts subtrees whose counters have all reached zero — the aging
// step of unbounded-stream operation: paths that stop appearing lose
// weight exponentially and eventually release their trie nodes. factor
// must be in (0, 1).
func (s *PathSketch) Decay(factor float64) {
	if !(factor > 0 && factor < 1) {
		panic("core: PathSketch.Decay factor must be in (0, 1)")
	}
	s.root.decay(factor)
	s.records = int(float64(s.records) * factor)
}

// Nodes returns the number of trie nodes held by the sketch — the memory
// proxy the flat-state assertions of the bounded-stream tests check.
func (s *PathSketch) Nodes() int { return s.root.nodeCount() }

// Stats derives the pass-① path statistics from the sketch, sorted by
// path. The rows are identical to CollectPathStats over the same records:
// where a node is ruled a collection its children's subtrees are merged
// into one wildcard child, reproducing the paths the sequential walk
// visits. Deriving does not consume the sketch; more records may be added
// and Stats called again.
func (s *PathSketch) Stats(cfg Config) []PathStat { return deriveStats(s.root, cfg) }

// sketchFromBag is the pass-① fold driver: it builds a sketch over the
// bag, folding contiguous ranges of its distinct types in parallel across
// workers (workers <= 1 folds sequentially).
func sketchFromBag(bag *jsontype.Bag, workers int) *PathSketch {
	if workers <= 1 || bag.Distinct() < 2 {
		s := NewPathSketch()
		s.AddBag(bag)
		return s
	}
	idx := make([]int, bag.Distinct())
	for i := range idx {
		idx[i] = i
	}
	return dist.Fold(idx, workers,
		NewPathSketch,
		func(s *PathSketch, i int) *PathSketch {
			s.AddN(bag.Types()[i], bag.Count(i))
			return s
		},
		func(a, b *PathSketch) *PathSketch { a.Merge(b); return a })
}
