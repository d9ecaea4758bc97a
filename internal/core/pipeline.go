package core

import (
	"context"
	"math/rand"
	"sync"

	"jxplain/internal/dist"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
	"jxplain/internal/stats"
)

// Pipeline runs JXPLAIN as the staged three-pass computation of Figure 3:
//
//	pass ① — a PathSketch folds the data once and fixes, per path,
//	         whether complex values are tuples or collections;
//	pass ② — a second walk precomputes, per tuple path, a deterministic
//	         strategy assigning each observed key set to an entity;
//	pass ③ — the shared synthesizer replays the walk and assembles the
//	         schema, consulting only the precomputed decisions.
//
// The paper decomposes JXPLAIN this way because the heuristics need global
// visibility, breaking the associative-fold structure that lets K-reduction
// distribute; each individual pass, by contrast, is embarrassingly
// parallel.
//
// Pipeline is the reference JXPLAIN of the experiments. It differs from
// the recursive Discover in one semantic detail: pass ① fixes decisions
// per *path*, so values of one path reached through different entities
// share a decision, while Discover re-evaluates the heuristic per
// entity-restricted bag. On single-root-entity data the two are
// structurally identical (pinned by integration tests); under multi-entity
// roots, borderline nested decisions (e.g. short object arrays whose
// length entropy straddles the threshold within one entity) can flip,
// changing the schema's shape but not its validation of the training data.
func Pipeline(bag *jsontype.Bag, cfg Config) schema.Schema {
	acc := NewAccumulator(cfg)
	acc.AddBag(bag)
	return acc.Finish()
}

// PipelineTypes is Pipeline over a slice of record types.
func PipelineTypes(types []*jsontype.Type, cfg Config) schema.Schema {
	return Pipeline(bagOf(types), cfg)
}

// Accumulator is the streaming form of Pipeline: records arrive in chunks
// (bags, types, or decoded values via the facade), pass-① statistics
// accumulate in a mergeable PathSketch as they do, and Finish runs passes
// ② and ③ over the deduplicated union bag. Memory is proportional to the
// collection's *distinct structure* (distinct record types plus distinct
// paths), never to its record count — the property that lets the pipeline
// ingest unbounded streams.
//
// When Config.DetectionSample is in (0, 1) the incremental sketch is
// skipped and pass ① instead samples the accumulated bag at Finish,
// matching the batch Pipeline draw for draw.
//
// Finish does not consume the accumulator: more records may be added and
// Finish called again, which is the natural shape for periodic schema
// snapshots over a live stream. An Accumulator is not safe for concurrent
// use.
type Accumulator struct {
	cfg    Config
	bag    *jsontype.Bag // exact union; nil when a reservoir bounds it
	sketch *PathSketch   // nil when detection sampling defers pass ① to Finish
	memo   *mergeMemo    // pass-③ subtree cache, kept across Finish calls

	// Bounded-stream state (Config.Bounds; see bounded.go).
	res           *jsontype.ReservoirBag // capped union when ReservoirCapacity > 0
	ring          *sketchRing            // closed sketch windows when WindowCount > 0
	sinceRotate   int                    // records since the last rotation
	onWindowClose func(index, records int, sketch *PathSketch)
}

// NewAccumulator returns an empty accumulator for the configuration.
func NewAccumulator(cfg Config) *Accumulator {
	a := &Accumulator{cfg: cfg, memo: newMergeMemo()}
	if cfg.Bounds.ReservoirCapacity > 0 {
		a.res = jsontype.NewReservoirBag(cfg.Bounds.ReservoirCapacity, cfg.Seed)
	} else {
		a.bag = &jsontype.Bag{}
	}
	if !(cfg.DetectionSample > 0 && cfg.DetectionSample < 1) {
		a.sketch = NewPathSketch()
	}
	if cfg.Bounds.WindowRecords > 0 && cfg.Bounds.WindowCount > 0 && a.sketch != nil {
		a.ring = newSketchRing(cfg.Bounds.WindowCount)
	}
	return a
}

// Add folds one record type into the accumulator.
func (a *Accumulator) Add(t *jsontype.Type) { a.AddN(t, 1) }

// AddN folds n occurrences of one record type into the accumulator.
func (a *Accumulator) AddN(t *jsontype.Type, n int) {
	if a.res != nil {
		a.res.AddN(t, n)
	} else {
		a.bag.AddN(t, n)
	}
	if a.sketch != nil {
		a.sketch.AddN(t, n)
	}
	a.advance(n)
}

// AddBag folds one chunk into the accumulator. The chunk bag is not
// retained and may be reused by the caller.
func (a *Accumulator) AddBag(chunk *jsontype.Bag) {
	n := chunk.Len()
	if a.res != nil {
		chunk.Each(func(t *jsontype.Type, c int) { a.res.AddN(t, c) })
	} else {
		a.bag.Merge(chunk)
	}
	if a.sketch != nil {
		if w := fanOutWidth(chunk.Distinct()); w > 1 {
			a.sketch.Merge(sketchFromBag(chunk, w))
		} else {
			a.sketch.AddBag(chunk)
		}
	}
	a.advance(n)
}

// Merge folds another accumulator's state into a — the reduce step of a
// scale-out run, where map workers each fold a shard into an accumulator
// and ship it (usually through the wire format). The result is
// observationally identical to one accumulator having seen both inputs:
// bags merge, and the sketch either merges trie-to-trie or, when other
// carries no sketch (a sampling configuration on the map side), refolds
// other's deduplicated bag. other must not be used afterwards: its trie
// nodes may be adopted by a.
//
// Bounded accumulators merge too — reservoirs combine through their own
// seed-deterministic batch merge (same capacity and seed required), live
// epochs fold trie-to-trie, and other's closed windows are adopted as
// a's most recent (shards carry no global window order, so any adoption
// order is an alignment approximation). A bounded a folds an unbounded
// other through the reservoir; the converse snapshots other's reservoir.
//
//jx:monoid consuming
func (a *Accumulator) Merge(other *Accumulator) {
	if other == nil {
		return
	}
	switch {
	case a.res == nil && other.res == nil:
		a.bag.Merge(other.bag)
	case a.res != nil && other.res != nil:
		a.res.Merge(other.res)
	case a.res != nil:
		other.bag.Each(func(t *jsontype.Type, n int) { a.res.AddN(t, n) })
	default:
		a.bag.Merge(other.res.Snapshot())
	}
	if a.sketch != nil {
		if other.sketch != nil {
			a.sketch.Merge(other.sketch)
		} else {
			a.sketch.AddBag(other.unionBag())
		}
	}
	if a.ring != nil && other.ring != nil {
		for _, w := range other.ring.windows {
			a.ring.push(w)
		}
	}
}

// Records returns the number of record occurrences accumulated — in
// bounded mode, the lifetime count seen, which decay does not rewind.
func (a *Accumulator) Records() int {
	if a.res != nil {
		return int(a.res.Seen())
	}
	return a.bag.Len()
}

// Distinct returns the number of distinct record types accumulated (in
// bounded mode, currently retained).
func (a *Accumulator) Distinct() int {
	if a.res != nil {
		return a.res.Distinct()
	}
	return a.bag.Distinct()
}

// Stats returns the pass-① path statistics over everything accumulated
// (over the retained window horizon, in bounded mode).
func (a *Accumulator) Stats() []PathStat { return a.statsSketch().Stats(a.cfg) }

// Finish runs passes ② and ③ over the accumulated collection and returns
// the schema (unsimplified, like Pipeline). Subtree results are memoized
// on the accumulator: a later Finish over a grown stream recomputes only
// the subtrees whose bags (or global decisions) actually changed.
func (a *Accumulator) Finish() schema.Schema {
	tree := a.statsSketch().root.derive(RootPath, a.cfg, nil)
	return synthesize(a.unionBag(), tree, a.cfg, a.memo)
}

// synthesize runs passes ② and ③ over the full bag, consulting the
// pass-① decision tree. memo may be nil (no caching).
func synthesize(bag *jsontype.Bag, tree *pathNode, cfg Config, memo *mergeMemo) schema.Schema {
	pool := dist.NewPool(fanOutWidth(bag.Distinct()))
	dec := &pipelineDecider{
		cfg:   cfg,
		tree:  tree,
		plans: map[planKey]*partitionPlan{},
		pool:  pool,
	}
	dec.eachPoint(tree, bag, dec.buildPlan) // pass ②
	if memo != nil {
		// The memo is only sound while the global decisions and plans that
		// shaped its entries still hold; a changed epoch drops the cache.
		memo.validate(dec.epochHash())
	}
	s := &synthesizer{dec: dec, pool: pool, memo: memo}
	return s.merge(tree, bag) // pass ③
}

// PipelineChunks runs the staged pipeline over a chunk source: next is
// called repeatedly for the next deduplicated chunk bag and returns
// (nil, nil) when the stream is exhausted. The context is checked between
// chunks; cancellation abandons the stream and returns ctx.Err().
func PipelineChunks(ctx context.Context, next func() (*jsontype.Bag, error), cfg Config) (schema.Schema, error) {
	acc := NewAccumulator(cfg)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk, err := next()
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		acc.AddBag(chunk)
	}
	return acc.Finish(), nil
}

// SampleBag draws a uniform sample of the bag's occurrences: each distinct
// type keeps a Binomial(multiplicity, fraction) share, drawn in O(1) per
// distinct type rather than per occurrence, with at least the guarantee
// that a non-empty bag stays non-empty. Sampling is deterministic for a
// given seed. It is the sampler behind Config.DetectionSample.
func SampleBag(bag *jsontype.Bag, fraction float64, seed int64) *jsontype.Bag {
	r := rand.New(rand.NewSource(seed))
	out := &jsontype.Bag{}
	bag.Each(func(t *jsontype.Type, n int) {
		if kept := stats.Binomial(r, n, fraction); kept > 0 {
			out.AddN(t, kept)
		}
	})
	if out.Len() == 0 && bag.Len() > 0 {
		out.Add(bag.Types()[0])
	}
	return out
}

// partitionPlan is the pass-② output for one partition point: the entity
// of every distinct type pass ② saw there, which pass ③ reads back without
// re-extracting features, plus the key-set → entity assignment behind it.
// Key sets are identified by their hash canon (keySetHash), which is
// dictionary-independent, so the epoch hash and the fallback for types
// pass ② never saw agree across walks.
type partitionPlan struct {
	byType map[uint64]int // type id -> entity
	assign map[uint64]int // keySetHash -> entity
	n      int            // entities numbered so far
}

// planKey names a partition point: the path string of its handle, and
// whether the plan partitions the array-kinded or object-kinded values
// there.
type planKey struct {
	path string
	arr  bool
}

type pipelineDecider struct {
	cfg  Config
	tree *pathNode // pass-① decisions; read-only
	pool *dist.Pool

	// mu guards plans during the concurrent pass-② walk and the plan
	// fallback writes during pass ③.
	mu    sync.Mutex
	plans map[planKey]*partitionPlan
}

func (d *pipelineDecider) arrayDecision(p *pathNode, arrays *jsontype.Bag) entropy.Decision {
	if p.dec.hasArr {
		return p.dec.arr
	}
	// A path pass ① never saw: fall back to the local heuristic.
	return (&localDecider{cfg: d.cfg}).arrayDecision(p, arrays)
}

func (d *pipelineDecider) objectDecision(p *pathNode, objects *jsontype.Bag) entropy.Decision {
	if p.dec.hasObj {
		return p.dec.obj
	}
	return (&localDecider{cfg: d.cfg}).objectDecision(p, objects)
}

func (d *pipelineDecider) partitionObjects(p *pathNode, objects *jsontype.Bag) []*jsontype.Bag {
	return d.partition(p, false, objects)
}

func (d *pipelineDecider) partitionArrays(p *pathNode, arrays *jsontype.Bag) []*jsontype.Bag {
	return d.partition(p, true, arrays)
}

// partition is pass ③'s entity split at one partition point: each type
// takes the entity pass ② assigned it. Pass-③ bags are sub-bags of the
// pass-② bag at the same path wherever the decisions above are global, so
// the lookup normally always hits; features are extracted only for types
// it misses.
func (d *pipelineDecider) partition(p *pathNode, arr bool, bag *jsontype.Bag) []*jsontype.Bag {
	d.mu.Lock()
	plan := d.plans[planKey{p.path, arr}]
	d.mu.Unlock()
	if plan == nil {
		// No plan is needed for SingleEntity and PerKeySet; otherwise this
		// is reached only where pass ③'s local decisions (at paths pass ①
		// never saw) diverge from pass ②'s. Either way, split on the spot.
		return partitionBag(p, bag, d.cfg)
	}
	assignment := make([]int, bag.Distinct())
	var missed []int
	for ti, t := range bag.Types() {
		cluster, ok := plan.byType[t.ID()]
		if !ok {
			missed = append(missed, ti)
		}
		assignment[ti] = cluster
	}
	if len(missed) > 0 {
		d.assignMissed(p, plan, bag, missed, assignment)
	}
	self := make([]int, bag.Distinct())
	typesBySet := make([][]int, bag.Distinct())
	for i := range typesBySet {
		self[i] = i
		typesBySet[i] = self[i : i+1]
	}
	return groupByAssignment(bag, typesBySet, assignment)
}

// assignMissed places types pass ② never saw at a partition point: a key
// set the plan knows joins its entity, and an unseen key set becomes a
// fresh entity. The entity counter lives on the plan, under d.mu, so
// unseen key sets met by different calls never share an id.
func (d *pipelineDecider) assignMissed(p *pathNode, plan *partitionPlan, bag *jsontype.Bag, missed, assignment []int) {
	w := newFeatureWalker(p)
	hashes := make([]uint64, len(missed))
	for i, ti := range missed {
		hashes[i] = w.keySetHash(w.features(bag.Types()[ti]))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, ti := range missed {
		cluster, ok := plan.assign[hashes[i]]
		if !ok {
			cluster = plan.n
			plan.assign[hashes[i]] = cluster
			plan.n++
		}
		assignment[ti] = cluster
	}
}

// eachPoint is the walk of pass ②: it follows the pass-① decisions down
// the data and calls point at every partition point — every path whose
// array- or object-kinded values are tuples — with the bag of those
// values. Child subtrees are independent, so with a pool they are walked
// concurrently; point must be safe for concurrent use.
func (d *pipelineDecider) eachPoint(p *pathNode, bag *jsontype.Bag, point func(p *pathNode, arr bool, bag *jsontype.Bag)) {
	_, arrays, objects := bag.SplitKinds()

	type child struct {
		p   *pathNode
		bag *jsontype.Bag
	}
	var children []child

	if arrays.Len() > 0 {
		if d.arrayDecision(p, arrays) == entropy.Collection {
			if elems := arrays.Elements(); elems.Len() > 0 {
				children = append(children, child{p.arrayElem(), elems})
			}
		} else {
			point(p, true, arrays)
			groups, _ := arrays.GroupByIndex()
			for i, g := range groups {
				children = append(children, child{p.index(i), g})
			}
		}
	}
	if objects.Len() > 0 {
		if d.objectDecision(p, objects) == entropy.Collection {
			if values := objects.FieldValues(); values.Len() > 0 {
				children = append(children, child{p.objectValue(), values})
			}
		} else {
			point(p, false, objects)
			keys, groups, _ := objects.GroupByKey()
			for i, key := range keys {
				children = append(children, child{p.field(key), groups[i]})
			}
		}
	}
	d.pool.ForEach(len(children), func(i int) {
		d.eachPoint(children[i].p, children[i].bag, point)
	})
}

// buildPlan is pass ② at one partition point: extract every distinct
// type's feature set once, cluster the distinct sets, and record the
// entity of each type. Entity discovery (Bimax clustering) dominates
// pass-② cost, and every point numbers its features privately over the
// shared read-only tree, so concurrent points share nothing but the plans
// map.
func (d *pipelineDecider) buildPlan(p *pathNode, arr bool, bag *jsontype.Bag) {
	if d.cfg.Partition == SingleEntity || d.cfg.Partition == PerKeySet {
		return // no plan needed
	}
	ks := newFeatureWalker(p).keySets(bag)
	assignment := assignClusters(ks.w, ks.dim, d.cfg)
	plan := &partitionPlan{
		byType: make(map[uint64]int, bag.Distinct()),
		assign: make(map[uint64]int, len(assignment)),
	}
	for si, cluster := range assignment {
		plan.assign[ks.hashes[si]] = cluster
		for _, ti := range ks.typesBySet[si] {
			plan.byType[bag.Types()[ti].ID()] = cluster
		}
		if cluster+1 > plan.n {
			plan.n = cluster + 1
		}
	}
	d.mu.Lock()
	d.plans[planKey{p.path, arr}] = plan
	d.mu.Unlock()
}
