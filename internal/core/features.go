package core

import (
	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
)

// Feature-vector preprocessing (§6.4). Entity discovery partitions a bag
// of tuple-like types by the set of *paths* appearing in each record — not
// just its top-level keys — so entities distinguished only by nested
// structure (e.g. GitHub payloads) still separate. Paths descend through
// tuple-like children; by default they stop at nested-collection
// boundaries (the paper's memory optimization, Figure 5), since paths
// inside a collection (drug names, user ids) are record-unique noise that
// explodes the number of distinct feature vectors.

// featureWalker is the §6.4 feature extractor at one partition point. It
// walks each type in step with a decision tree — pass ①'s in the
// pipeline, the point's own detection walk in the recursive Discover — so
// a feature is a path handle rather than a rendered string, and it numbers
// the handles densely in first-seen order (the order an entity.Dict gives
// the rendered paths). Numbering and the handles for paths the tree lacks
// are local to the point; the tree itself is only read. A path the tree
// lacks has no decision, and descent treats it as Tuple.
type featureWalker struct {
	base       *pathNode
	keepNested bool // descend into nested collections (Figure 5's unpruned input)
	ids        map[*pathNode]int
	nodes      []*pathNode // by feature id
	local      map[localEdge]*pathNode
	buf        []int
}

// localEdge names a child of a handle that has no tree node: index is -1
// for object keys.
type localEdge struct {
	parent *pathNode
	key    string
	index  int
}

func newFeatureWalker(base *pathNode) *featureWalker {
	return &featureWalker{base: base, ids: map[*pathNode]int{}}
}

// features returns the feature ids of one type rooted at the partition
// point: one per child key or index, depth first through tuple-like
// values. The type's own decision is Tuple (that is why it is being
// partitioned), so extraction starts at its children. The slice is
// reused by the next call.
func (w *featureWalker) features(t *jsontype.Type) []int {
	w.buf = w.buf[:0]
	w.children(t, w.base)
	return w.buf
}

func (w *featureWalker) children(t *jsontype.Type, n *pathNode) {
	switch t.Kind() {
	case jsontype.KindObject:
		for _, f := range t.Fields() {
			w.feature(f.Type, w.child(n, f.Key, -1))
		}
	case jsontype.KindArray:
		for i, e := range t.Elems() {
			w.feature(e, w.child(n, "", i))
		}
	default:
		// Primitive kinds have no children, hence no child features.
	}
}

// feature records c and continues below it unless its value is a nested
// collection (the pruning of Figure 5); unpruned, the collection's
// concrete keys and indices become features of their own.
func (w *featureWalker) feature(t *jsontype.Type, c *pathNode) {
	w.buf = append(w.buf, w.id(c))
	switch t.Kind() {
	case jsontype.KindObject:
		if c.dec.hasObj && c.dec.obj == entropy.Collection && !w.keepNested {
			return
		}
	case jsontype.KindArray:
		if c.dec.hasArr && c.dec.arr == entropy.Collection && !w.keepNested {
			return
		}
	default:
		return // a leaf
	}
	w.children(t, c)
}

func (w *featureWalker) id(n *pathNode) int {
	if id, ok := w.ids[n]; ok {
		return id
	}
	id := len(w.nodes)
	w.ids[n] = id
	w.nodes = append(w.nodes, n)
	return id
}

// child returns the handle of n's child at key (index < 0) or at index:
// the tree's node, or else a local handle made once per point.
func (w *featureWalker) child(n *pathNode, key string, index int) *pathNode {
	if index < 0 {
		if c := n.fields[key]; c != nil {
			return c
		}
	} else if index < len(n.elems) {
		return n.elems[index]
	}
	e := localEdge{n, key, index}
	if c := w.local[e]; c != nil {
		return c
	}
	var c *pathNode
	if index < 0 {
		c = n.field(key)
	} else {
		c = n.index(index)
	}
	if w.local == nil {
		w.local = map[localEdge]*pathNode{}
	}
	w.local[e] = c
	return c
}

// keySetHash is the canon of a feature set: a commutative 64-bit hash of
// its members' path hashes, independent of numbering and order.
func (w *featureWalker) keySetHash(ids []int) uint64 {
	var h uint64
	for _, id := range ids {
		h += mix64(w.nodes[id].hash)
	}
	return h
}

// pointKeySets is the clustering input of one partition point: the
// weighted distinct feature sets over dim numbered features, the indices
// of the types carrying each set, and each set's hash canon.
type pointKeySets struct {
	w          entity.Weighted
	dim        int
	typesBySet [][]int
	hashes     []uint64
}

// keySets extracts every distinct type's feature set once and groups the
// types by set, in first-seen order.
func (w *featureWalker) keySets(bag *jsontype.Bag) pointKeySets {
	var ks pointKeySets
	setIndex := map[string]int{}
	for ti, t := range bag.Types() {
		ids := w.features(t)
		set := entity.NewKeySet(ids...)
		c := set.Canon()
		si, ok := setIndex[c]
		if !ok {
			si = len(ks.w.Sets)
			setIndex[c] = si
			ks.w.Sets = append(ks.w.Sets, set)
			ks.w.Weights = append(ks.w.Weights, 0)
			ks.typesBySet = append(ks.typesBySet, nil)
			ks.hashes = append(ks.hashes, w.keySetHash(ids))
		}
		ks.w.Weights[si] += bag.Count(ti)
		ks.typesBySet[si] = append(ks.typesBySet[si], ti)
	}
	ks.dim = len(w.nodes)
	return ks
}

// perSet is the identity assignment: one entity per distinct set, the
// PerKeySet strategy.
func (ks pointKeySets) perSet() []int {
	out := make([]int, len(ks.w.Sets))
	for i := range out {
		out[i] = i
	}
	return out
}

// subtreeDecisions is the recursive strategy's detection walk at a
// partition point: the local tuple/collection decisions of the bag's
// paths, relative to its root (""), as a tree for featureWalker. This is
// the extra pass the recursive strategy pays at every partition point
// (the pipeline reuses pass ① instead). Feature extraction never looks
// below a collection, so the walk stops there.
func subtreeDecisions(bag *jsontype.Bag, cfg Config) *pathNode {
	root := newPathNode("")
	collectSubtree(root, bag, &localDecider{cfg: cfg})
	return root
}

func collectSubtree(n *pathNode, bag *jsontype.Bag, d *localDecider) {
	_, arrays, objects := bag.SplitKinds()
	if arrays.Len() > 0 {
		n.dec.arr, n.dec.hasArr = d.arrayDecision(n, arrays), true
		if n.dec.arr != entropy.Collection {
			groups, _ := arrays.GroupByIndex()
			n.elems = make([]*pathNode, len(groups))
			for i, g := range groups {
				n.elems[i] = newPathNode(arrayIndexPath(n.path, i))
				collectSubtree(n.elems[i], g, d)
			}
		}
	}
	if objects.Len() > 0 {
		n.dec.obj, n.dec.hasObj = d.objectDecision(n, objects), true
		if n.dec.obj != entropy.Collection {
			keys, groups, _ := objects.GroupByKey()
			n.fields = make(map[string]*pathNode, len(keys))
			for i, key := range keys {
				c := newPathNode(childKeyPath(n.path, key))
				n.fields[key] = c
				collectSubtree(c, groups[i], d)
			}
		}
	}
}

// BuildFeatureSet materializes the root collection's feature vectors into
// an entity.FeatureSet — the §6.4 preprocessing output — using the given
// encoding and pruning flag. Features are named by their paths relative
// to the root; when pruneNested is false, paths inside nested collections
// are retained verbatim (concrete keys and indices), reproducing the
// unoptimized preprocessing of Figure 5. Exposed for the Figure 5 memory
// experiment and for external inspection of the partitioning input.
func BuildFeatureSet(bag *jsontype.Bag, cfg Config, pruneNested bool, enc entity.Encoding) *entity.FeatureSet {
	w := newFeatureWalker(subtreeDecisions(bag, cfg))
	w.keepNested = !pruneNested
	fs := entity.NewFeatureSet(enc)
	var names []string
	bag.Each(func(t *jsontype.Type, n int) {
		if t.Kind() != jsontype.KindObject && t.Kind() != jsontype.KindArray {
			return
		}
		names = names[:0]
		for _, id := range w.features(t) {
			names = append(names, w.nodes[id].path)
		}
		fs.AddNamesN(names, n)
	})
	return fs
}
