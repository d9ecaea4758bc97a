package core

import (
	"strconv"
	"strings"

	"jxplain/internal/dist"
	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/merge"
	"jxplain/internal/schema"
)

// Discover runs JXPLAIN's merge (Algorithm 4) over a bag of record types
// and returns the discovered schema. This is the recursive ("naive
// implementation", §4.1) strategy: every nested bag is inspected with full
// visibility of the collection, so the global heuristics apply exactly.
func Discover(bag *jsontype.Bag, cfg Config) schema.Schema {
	s := &synthesizer{dec: &localDecider{cfg: cfg}}
	return s.merge(nil, bag)
}

// DiscoverTypes is Discover over a slice of record types.
func DiscoverTypes(types []*jsontype.Type, cfg Config) schema.Schema {
	return Discover(bagOf(types), cfg)
}

func bagOf(types []*jsontype.Type) *jsontype.Bag {
	bag := &jsontype.Bag{}
	for _, t := range types {
		bag.Add(t)
	}
	return bag
}

// RootPath is the path string of the root collection.
const RootPath = "$"

// Path-string construction. Paths identify where a bag of values sits in
// the record structure: object keys append ".key", collection elements
// append "[*]" (arrays) or ".{*}" (objects), and tuple-array positions
// append "[i]". Pass ① of the pipeline keys its decisions by these paths,
// so keys containing path-structural characters are escaped — without
// this, the records {"a.b": x} and {"a": {"b": x}} would alias one path.

func childKeyPath(path, key string) string { return path + "." + escapePathKey(key) }
func arrayElemPath(path string) string     { return path + "[*]" }
func objectValuePath(path string) string   { return path + ".{*}" }
func arrayIndexPath(path string, i int) string {
	return path + "[" + strconv.Itoa(i) + "]"
}

func escapePathKey(key string) string {
	if !strings.ContainsAny(key, `.[\{`) {
		return key
	}
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		switch c := key[i]; c {
		case '.', '[', '\\', '{':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// decider answers Algorithm 4's two questions — collection or tuple? and
// how do tuples partition into entities? — for the bag of values observed
// at one path, named by its handle. The recursive strategy computes
// answers on the spot and ignores the handle (it threads nil); the staged
// pipeline precomputes them in passes ① and ②.
type decider interface {
	arrayDecision(p *pathNode, arrays *jsontype.Bag) entropy.Decision
	objectDecision(p *pathNode, objects *jsontype.Bag) entropy.Decision
	partitionObjects(p *pathNode, objects *jsontype.Bag) []*jsontype.Bag
	partitionArrays(p *pathNode, arrays *jsontype.Bag) []*jsontype.Bag
}

// synthesizer is the shared schema-construction engine (pass ③): it walks
// bags top-down, consults the decider, and assembles the schema grammar.
// With a non-nil pool, sibling subtrees are merged concurrently; results
// are always combined in index order, so the output schema is identical to
// the sequential walk. A non-nil memo caches subtree results across Finish
// calls, keyed by (path string of the handle, bag content hash).
type synthesizer struct {
	dec  decider
	pool *dist.Pool
	memo *mergeMemo
}

func (s *synthesizer) merge(p *pathNode, bag *jsontype.Bag) schema.Schema {
	if s.memo == nil {
		return s.mergeUncached(p, bag)
	}
	key := memoKey{path: p.path, bag: bagContentHash(bag)}
	if cached, ok := s.memo.get(key); ok {
		return cached
	}
	out := s.mergeUncached(p, bag)
	s.memo.put(key, out)
	return out
}

func (s *synthesizer) mergeUncached(p *pathNode, bag *jsontype.Bag) schema.Schema {
	prims, arrays, objects := bag.SplitKinds()
	alts := merge.Primitives(prims)

	if arrays.Len() > 0 {
		if s.dec.arrayDecision(p, arrays) == entropy.Collection {
			alts = append(alts, s.mergeArrayColl(p, arrays))
		} else {
			parts := s.dec.partitionArrays(p, arrays)
			partAlts := make([]schema.Schema, len(parts))
			s.pool.ForEach(len(parts), func(i int) {
				partAlts[i] = s.mergeArrayTuple(p, parts[i])
			})
			alts = append(alts, partAlts...)
		}
	}
	if objects.Len() > 0 {
		if s.dec.objectDecision(p, objects) == entropy.Collection {
			alts = append(alts, s.mergeObjectColl(p, objects))
		} else {
			parts := s.dec.partitionObjects(p, objects)
			partAlts := make([]schema.Schema, len(parts))
			s.pool.ForEach(len(parts), func(i int) {
				partAlts[i] = s.mergeObjectTuple(p, parts[i])
			})
			alts = append(alts, partAlts...)
		}
	}
	return schema.NewUnion(alts...)
}

// mergeArrayColl is Algorithm 2 with path threading.
func (s *synthesizer) mergeArrayColl(p *pathNode, bag *jsontype.Bag) schema.Schema {
	maxLen := 0
	for _, t := range bag.Types() {
		if t.Len() > maxLen {
			maxLen = t.Len()
		}
	}
	elem := schema.Empty()
	if elems := bag.Elements(); elems.Len() > 0 {
		elem = s.merge(p.arrayElem(), elems)
	}
	return &schema.ArrayCollection{Elem: elem, MaxLen: maxLen}
}

// mergeObjectColl is the object analog of Algorithm 2 with path threading.
func (s *synthesizer) mergeObjectColl(p *pathNode, bag *jsontype.Bag) schema.Schema {
	domain := map[string]bool{}
	for _, t := range bag.Types() {
		for _, f := range t.Fields() {
			domain[f.Key] = true
		}
	}
	value := schema.Empty()
	if values := bag.FieldValues(); values.Len() > 0 {
		value = s.merge(p.objectValue(), values)
	}
	return &schema.ObjectCollection{Value: value, Domain: len(domain)}
}

// mergeObjectTuple is Algorithm 3 with path threading.
func (s *synthesizer) mergeObjectTuple(p *pathNode, bag *jsontype.Bag) schema.Schema {
	keys, groups, present := bag.GroupByKey()
	total := bag.Len()
	fields := make([]schema.FieldSchema, len(keys))
	s.pool.ForEach(len(keys), func(i int) {
		fields[i] = schema.FieldSchema{Key: keys[i], Schema: s.merge(p.field(keys[i]), groups[i])}
	})
	var required, optional []schema.FieldSchema
	for i, f := range fields {
		if present[i] == total {
			required = append(required, f)
		} else {
			optional = append(optional, f)
		}
	}
	return schema.NewObjectTuple(required, optional)
}

// mergeArrayTuple is the array analog of Algorithm 3 with path threading.
func (s *synthesizer) mergeArrayTuple(p *pathNode, bag *jsontype.Bag) schema.Schema {
	groups, _ := bag.GroupByIndex()
	minLen := -1
	for _, t := range bag.Types() {
		if minLen < 0 || t.Len() < minLen {
			minLen = t.Len()
		}
	}
	if minLen < 0 {
		minLen = 0
	}
	elems := make([]schema.Schema, len(groups))
	s.pool.ForEach(len(groups), func(i int) {
		elems[i] = s.merge(p.index(i), groups[i])
	})
	return &schema.ArrayTuple{Elems: elems, MinLen: minLen}
}

// localDecider answers on the spot from the bag at hand — the recursive
// strategy of §4.1.
type localDecider struct {
	cfg Config
}

func (d *localDecider) arrayDecision(_ *pathNode, arrays *jsontype.Bag) entropy.Decision {
	if !d.cfg.DetectArrayTuples {
		return entropy.Collection
	}
	decision, _ := entropy.DetectArrays(arrays, d.cfg.Detection)
	return decision
}

func (d *localDecider) objectDecision(_ *pathNode, objects *jsontype.Bag) entropy.Decision {
	if !d.cfg.DetectObjectCollections {
		return entropy.Tuple
	}
	decision, _ := entropy.DetectObjects(objects, d.cfg.Detection)
	return decision
}

func (d *localDecider) partitionObjects(_ *pathNode, objects *jsontype.Bag) []*jsontype.Bag {
	return partitionBag(subtreeDecisions(objects, d.cfg), objects, d.cfg)
}

func (d *localDecider) partitionArrays(_ *pathNode, arrays *jsontype.Bag) []*jsontype.Bag {
	return partitionBag(subtreeDecisions(arrays, d.cfg), arrays, d.cfg)
}

// partitionBag splits a bag of tuple-like types at partition point p into
// entity bags according to the configured strategy. Partitioning operates
// on the distinct §6.4 feature sets appearing in the bag (Section 6),
// extracted against p's decision tree; all types sharing a set land in
// the same entity.
func partitionBag(p *pathNode, bag *jsontype.Bag, cfg Config) []*jsontype.Bag {
	if cfg.Partition == SingleEntity {
		return []*jsontype.Bag{bag}
	}
	ks := newFeatureWalker(p).keySets(bag)
	if cfg.Partition == PerKeySet {
		return groupByAssignment(bag, ks.typesBySet, ks.perSet())
	}
	return groupByAssignment(bag, ks.typesBySet, assignClusters(ks.w, ks.dim, cfg))
}

// assignClusters maps each distinct key set (over dim key ids) to a
// cluster id under the configured strategy. Weights ride along for
// per-entity statistics; no strategy's clustering decisions depend on
// them (entity discovery is multiplicity-blind, §6.4).
func assignClusters(w entity.Weighted, dim int, cfg Config) []int {
	assignment := make([]int, len(w.Sets))
	switch cfg.Partition {
	case BimaxNaive, BimaxMerge:
		clusters := entity.DiscoverEntities(w, cfg.Partition == BimaxMerge)
		for ci, c := range clusters {
			for _, m := range c.Members {
				assignment[m] = ci
			}
		}
	case KMeansStrategy:
		k := cfg.KMeansK
		if k <= 0 {
			k = 1
		}
		assignment = entity.KMeans(w.Sets, dim, k, cfg.Seed, 100)
	}
	return assignment
}

// groupByAssignment materializes entity bags from a cluster assignment
// over distinct key sets.
func groupByAssignment(bag *jsontype.Bag, typesBySet [][]int, assignment []int) []*jsontype.Bag {
	nClusters := 0
	for _, c := range assignment {
		if c+1 > nClusters {
			nClusters = c + 1
		}
	}
	parts := make([]*jsontype.Bag, nClusters)
	for si, cluster := range assignment {
		if parts[cluster] == nil {
			parts[cluster] = &jsontype.Bag{}
		}
		for _, ti := range typesBySet[si] {
			parts[cluster].AddN(bag.Types()[ti], bag.Count(ti))
		}
	}
	out := parts[:0]
	for _, p := range parts {
		if p != nil && p.Len() > 0 {
			out = append(out, p)
		}
	}
	return out
}
