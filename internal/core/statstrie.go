package core

import (
	"sort"

	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/stats"
)

// statsTrie is the per-partition pass-① state: a trie over *concrete*
// paths (object keys and array positions) carrying the statistics
// Algorithm 5 needs. Every counter is mergeable — record and key-presence
// counts add, length histograms add, the similar-types constraint combines
// through the subsumption rule — which is what lets per-chunk tries fold
// into exactly the statistics one pass over the whole collection would
// have produced (see parallel.go for the fold, wire.go for the
// serialized form).
//
// Node state is deliberately enumerable, not just walkable: the each*
// iterators expose every counter in a deterministic order and the set*
// builders fold those enumerations back into a node, so the wire codec
// round-trips a trie without reaching into representation details like
// map layout or accumulator internals.
type statsTrie struct {
	// Object-kinded statistics at this path.
	objCount  int
	keyCounts map[string]int
	objSim    jsontype.SimilarityAccumulator

	// Array-kinded statistics at this path.
	arrCount  int
	lenCounts map[int]int
	arrSim    jsontype.SimilarityAccumulator

	children map[string]*statsTrie // object keys
	elems    []*statsTrie          // array positions
}

// newStatsTrie allocates an empty trie node.
//
//jx:coldpath allocates once per newly observed path node, not per record
func newStatsTrie() *statsTrie { return &statsTrie{} }

//jx:hotpath
func (t *statsTrie) child(key string) *statsTrie {
	if t.children == nil {
		t.children = map[string]*statsTrie{}
	}
	c := t.children[key]
	if c == nil {
		c = newStatsTrie()
		t.children[key] = c
	}
	return c
}

//jx:hotpath
func (t *statsTrie) elem(i int) *statsTrie {
	for len(t.elems) <= i {
		t.elems = append(t.elems, newStatsTrie())
	}
	return t.elems[i]
}

// add folds one value type (with multiplicity n) into the trie.
//
//jx:hotpath
func (t *statsTrie) add(ty *jsontype.Type, n int) {
	switch ty.Kind() {
	case jsontype.KindObject:
		t.objCount += n
		if t.keyCounts == nil {
			t.keyCounts = map[string]int{}
		}
		for _, f := range ty.Fields() {
			t.keyCounts[f.Key] += n
			t.objSim.Add(f.Type)
			t.child(f.Key).add(f.Type, n)
		}
	case jsontype.KindArray:
		t.arrCount += n
		if t.lenCounts == nil {
			t.lenCounts = map[int]int{}
		}
		t.lenCounts[ty.Len()] += n
		for i, e := range ty.Elems() {
			t.arrSim.Add(e)
			t.elem(i).add(e, n)
		}
	default:
		// Primitive occurrences carry no per-node stats of their own;
		// they are counted by the parent's key/length distributions.
	}
}

// combine merges other into t (mutating t). other is consumed: its
// maps and children may be adopted wholesale.
//
//jx:hotpath
//jx:monoid consuming
func (t *statsTrie) combine(other *statsTrie) *statsTrie {
	t.objCount += other.objCount
	if other.keyCounts != nil {
		if t.keyCounts == nil {
			t.keyCounts = other.keyCounts
		} else {
			for k, n := range other.keyCounts {
				t.keyCounts[k] += n
			}
		}
	}
	t.objSim.Combine(&other.objSim)

	t.arrCount += other.arrCount
	if other.lenCounts != nil {
		if t.lenCounts == nil {
			t.lenCounts = other.lenCounts
		} else {
			for l, n := range other.lenCounts {
				t.lenCounts[l] += n
			}
		}
	}
	t.arrSim.Combine(&other.arrSim)

	for k, oc := range other.children {
		if tc, ok := t.children[k]; ok {
			tc.combine(oc)
		} else {
			t.child(k).combine(oc)
		}
	}
	for i, oe := range other.elems {
		t.elem(i).combine(oe)
	}
	return t
}

// combineShared folds other into t while treating other's whole subtree
// as immutable: counters are copied, never adopted. combine's
// map-adoption shortcut is correct for Merge (the argument is consumed)
// but must not be used where the source trie lives on — derive builds
// wildcard merge nodes from live children, and adopting a child's map
// there would let a later fold into the merge node silently corrupt the
// sketch Stats was called on.
//
//jx:monoid
func (t *statsTrie) combineShared(other *statsTrie) *statsTrie {
	t.objCount += other.objCount
	for k, n := range other.keyCounts {
		t.setKeyCount(k, n)
	}
	t.objSim.Combine(&other.objSim)

	t.arrCount += other.arrCount
	for l, n := range other.lenCounts {
		t.setLenCount(l, n)
	}
	t.arrSim.Combine(&other.arrSim)

	for k, oc := range other.children {
		t.child(k).combineShared(oc)
	}
	for i, oe := range other.elems {
		t.elem(i).combineShared(oe)
	}
	return t
}

// decay scales every additive counter by factor (flooring) and compacts
// the subtree: children whose counters and descendants have all decayed
// to zero are unlinked, and trailing zeroed array positions are trimmed,
// so paths that stopped appearing in the stream eventually release their
// nodes instead of pinning the trie forever. The similarity accumulators
// are left untouched — they encode a monotone constraint (a dissimilarity
// once observed cannot be un-observed), not a frequency, so aging them
// would claim evidence the stream never retracted.
func (t *statsTrie) decay(factor float64) {
	t.objCount = int(float64(t.objCount) * factor)
	for k, n := range t.keyCounts {
		if scaled := int(float64(n) * factor); scaled > 0 {
			t.keyCounts[k] = scaled
		} else {
			delete(t.keyCounts, k)
		}
	}
	if len(t.keyCounts) == 0 {
		t.keyCounts = nil
	}
	t.arrCount = int(float64(t.arrCount) * factor)
	for l, n := range t.lenCounts {
		if scaled := int(float64(n) * factor); scaled > 0 {
			t.lenCounts[l] = scaled
		} else {
			delete(t.lenCounts, l)
		}
	}
	if len(t.lenCounts) == 0 {
		t.lenCounts = nil
	}
	for k, c := range t.children {
		c.decay(factor)
		if c.decayedOut() {
			delete(t.children, k)
		}
	}
	if len(t.children) == 0 {
		t.children = nil
	}
	for _, e := range t.elems {
		e.decay(factor)
	}
	for len(t.elems) > 0 && t.elems[len(t.elems)-1].decayedOut() {
		t.elems = t.elems[:len(t.elems)-1]
	}
}

// decayedOut reports whether every counter in the subtree has reached
// zero, licensing compaction.
func (t *statsTrie) decayedOut() bool {
	if t.objCount != 0 || t.arrCount != 0 ||
		len(t.keyCounts) != 0 || len(t.lenCounts) != 0 {
		return false
	}
	for _, c := range t.children {
		if !c.decayedOut() {
			return false
		}
	}
	for _, e := range t.elems {
		if !e.decayedOut() {
			return false
		}
	}
	return true
}

// nodeCount returns the number of trie nodes in the subtree — the memory
// proxy behind the flat-RSS assertions.
func (t *statsTrie) nodeCount() int {
	n := 1
	for _, c := range t.children {
		n += c.nodeCount()
	}
	for _, e := range t.elems {
		n += e.nodeCount()
	}
	return n
}

// ---- enumerable node state (the encode side of the wire codec) ----

// eachKeyCount calls fn for every (key, presence count) pair in sorted
// key order.
func (t *statsTrie) eachKeyCount(fn func(key string, n int)) {
	keys := make([]string, 0, len(t.keyCounts))
	for k := range t.keyCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, t.keyCounts[k])
	}
}

// eachLenCount calls fn for every (array length, count) pair in ascending
// length order.
func (t *statsTrie) eachLenCount(fn func(length, n int)) {
	lengths := make([]int, 0, len(t.lenCounts))
	for l := range t.lenCounts {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		fn(l, t.lenCounts[l])
	}
}

// eachChild calls fn for every named child in sorted key order.
func (t *statsTrie) eachChild(fn func(key string, c *statsTrie)) {
	for _, k := range sortedKeys(t.children) {
		fn(k, t.children[k])
	}
}

// ---- node builders (the decode side of the wire codec) ----

// setKeyCount adds a key-presence count to the node.
//
//jx:hotpath
func (t *statsTrie) setKeyCount(key string, n int) {
	if t.keyCounts == nil {
		t.keyCounts = map[string]int{}
	}
	t.keyCounts[key] += n
}

// setLenCount adds an array-length count to the node.
//
//jx:hotpath
func (t *statsTrie) setLenCount(length, n int) {
	if t.lenCounts == nil {
		t.lenCounts = map[int]int{}
	}
	t.lenCounts[length] += n
}

// ---- evidence derivation ----

// objectEvidence renders the node's object statistics as entropy.Evidence,
// matching entropy.DetectObjects bit for bit.
func (t *statsTrie) objectEvidence() entropy.Evidence {
	// Key order must be pinned before the float64 summation inside Entropy:
	// FP addition is not associative, so map order would leak into the
	// entropy bits (and differ from entropy.DetectObjects).
	weights := make([]float64, 0, len(t.keyCounts))
	t.eachKeyCount(func(_ string, n int) {
		weights = append(weights, float64(n))
	})
	return entropy.Evidence{
		KeyEntropy:   stats.Entropy(weights, float64(t.objCount)),
		Similar:      t.objSim.Similar(),
		Records:      t.objCount,
		DistinctKeys: len(t.keyCounts),
	}
}

// arrayEvidence renders the node's array statistics, matching
// entropy.DetectArrays.
func (t *statsTrie) arrayEvidence() entropy.Evidence {
	weights := make([]float64, 0, len(t.lenCounts))
	t.eachLenCount(func(_, n int) {
		weights = append(weights, float64(n))
	})
	return entropy.Evidence{
		KeyEntropy:   stats.Entropy(weights, float64(t.arrCount)),
		Similar:      t.arrSim.Similar(),
		Records:      t.arrCount,
		DistinctKeys: len(t.lenCounts),
	}
}

// pathNode is one abstract path of a decision tree — pass ①'s, built by
// derive, or a recursive partition point's, built by subtreeDecisions: the
// handle passes ② and ③ use instead of path strings. Each node carries the
// pass-① decisions at its path and the path string derive renders anyway
// (for PathStat rows and memo keys), so neither pass concatenates paths
// for anything pass ① saw. The tree is read-only once derived, so the
// concurrent passes read it without locks. Paths pass ① never saw (a
// DetectionSample draw, a bounded window horizon) get local handles with
// no decisions: Tuple for feature descent, the local heuristic for the
// pass-②/③ questions — exactly the defaults of a missing decision.
type pathNode struct {
	path string
	hash uint64 // pathHash(path)
	dec  pathDecision

	fields map[string]*pathNode // object-tuple children by key
	elems  []*pathNode          // array-tuple children by position
	elem   *pathNode            // "[*]": elements of an array collection
	value  *pathNode            // ".{*}": values of an object collection
}

// pathDecision stores the pass-① outcome for one path, separately for the
// array-kinded and object-kinded values observed there.
type pathDecision struct {
	arr, obj       entropy.Decision
	hasArr, hasObj bool
}

func newPathNode(path string) *pathNode {
	return &pathNode{path: path, hash: pathHash(path)}
}

// pathHash is 64-bit FNV-1a over the path string: stable across
// processes and Finish calls, unlike the node pointers.
func pathHash(path string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return h
}

// The child handles below return the tree's node when pass ① saw the
// path and a fresh local handle otherwise. A nil handle has nil children:
// the recursive Discover's synthesizer threads nil, as it keeps no
// global tree.

func (n *pathNode) field(key string) *pathNode {
	if n == nil {
		return nil
	}
	if c := n.fields[key]; c != nil {
		return c
	}
	return newPathNode(childKeyPath(n.path, key))
}

func (n *pathNode) index(i int) *pathNode {
	if n == nil {
		return nil
	}
	if i < len(n.elems) {
		return n.elems[i]
	}
	return newPathNode(arrayIndexPath(n.path, i))
}

func (n *pathNode) arrayElem() *pathNode {
	if n == nil {
		return nil
	}
	if n.elem != nil {
		return n.elem
	}
	return newPathNode(arrayElemPath(n.path))
}

func (n *pathNode) objectValue() *pathNode {
	if n == nil {
		return nil
	}
	if n.value != nil {
		return n.value
	}
	return newPathNode(objectValuePath(n.path))
}

// each calls fn for every node of the tree, in no particular order.
func (n *pathNode) each(fn func(*pathNode)) {
	fn(n)
	for _, c := range n.fields {
		c.each(fn)
	}
	for _, c := range n.elems {
		c.each(fn)
	}
	if n.elem != nil {
		n.elem.each(fn)
	}
	if n.value != nil {
		n.value.each(fn)
	}
}

// derive walks the aggregated trie top-down, emitting the same PathStat
// rows the sequential CollectPathStats produces (unsorted; out may be nil
// when only the tree is wanted), and returns the decision tree of the
// paths it visited. Tree nodes exist for every path the walk reaches,
// leaves and primitive-only collection elements included.
func (t *statsTrie) derive(path string, cfg Config, out *[]PathStat) *pathNode {
	n := newPathNode(path)
	if t.arrCount > 0 {
		ev := t.arrayEvidence()
		decision := entropy.Decide(ev, cfg.Detection)
		if !cfg.DetectArrayTuples {
			decision = entropy.Collection
		}
		n.dec.arr, n.dec.hasArr = decision, true
		if out != nil {
			*out = append(*out, PathStat{
				Path: path, Kind: jsontype.KindArray, Decision: decision, Evidence: ev,
			})
		}
		if decision == entropy.Collection {
			merged := newStatsTrie()
			for _, e := range t.elems {
				merged.combineShared(e)
			}
			// An empty merge (primitive elements only) derives a bare leaf.
			n.elem = merged.derive(arrayElemPath(path), cfg, out)
		} else {
			n.elems = make([]*pathNode, len(t.elems))
			for i, e := range t.elems {
				n.elems[i] = e.derive(arrayIndexPath(path, i), cfg, out)
			}
		}
	}
	if t.objCount > 0 {
		ev := t.objectEvidence()
		decision := entropy.Decide(ev, cfg.Detection)
		if !cfg.DetectObjectCollections {
			decision = entropy.Tuple
		}
		n.dec.obj, n.dec.hasObj = decision, true
		if out != nil {
			*out = append(*out, PathStat{
				Path: path, Kind: jsontype.KindObject, Decision: decision, Evidence: ev,
			})
		}
		if decision == entropy.Collection {
			merged := newStatsTrie()
			keys := sortedKeys(t.children)
			for _, k := range keys {
				merged.combineShared(t.children[k])
			}
			n.value = merged.derive(objectValuePath(path), cfg, out)
		} else {
			n.fields = make(map[string]*pathNode, len(t.children))
			for _, k := range sortedKeys(t.children) {
				n.fields[k] = t.children[k].derive(childKeyPath(path, k), cfg, out)
			}
		}
	}
	return n
}

func sortedKeys(m map[string]*statsTrie) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
