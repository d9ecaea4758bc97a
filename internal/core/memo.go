package core

import (
	"sync"

	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// mergeMemo caches pass-③ results across Finish calls on one Accumulator.
// Keys pair the path with an order-independent content hash of the bag
// merged there: interning gives every distinct type a dense uint64 id, so
// the (id, count) multiset identifies a bag exactly (up to 64-bit mixing).
// Sharing cached schema nodes across results is sound because synthesis
// never mutates a schema after construction and schema.Simplify rebuilds
// rather than mutates.
//
// The memo is only valid for one epoch of global decisions: the pass-①
// decision map and the pass-② partition plans together determine how any
// (path, bag) pair synthesizes. validate drops all entries when that
// epoch hash changes (e.g. new records flipped a tuple/collection decision
// or re-clustered a partition point).
type mergeMemo struct {
	mu    sync.Mutex
	epoch uint64
	m     map[memoKey]schema.Schema
}

type memoKey struct {
	path string
	bag  uint64
}

func newMergeMemo() *mergeMemo {
	return &mergeMemo{m: map[memoKey]schema.Schema{}}
}

// validate keeps the cache when the decision epoch is unchanged and resets
// it otherwise.
func (mm *mergeMemo) validate(epoch uint64) {
	if mm.epoch != epoch {
		mm.epoch = epoch
		mm.m = map[memoKey]schema.Schema{}
	}
}

func (mm *mergeMemo) get(k memoKey) (schema.Schema, bool) {
	mm.mu.Lock()
	s, ok := mm.m[k]
	mm.mu.Unlock()
	return s, ok
}

func (mm *mergeMemo) put(k memoKey, s schema.Schema) {
	mm.mu.Lock()
	mm.m[k] = s
	mm.mu.Unlock()
}

// mix64 is the splitmix64 finalizer — used to whiten per-element hashes
// before the commutative sum that makes bag and epoch hashes
// order-independent.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// bagContentHash folds a bag's (type id, count) pairs into one hash,
// independent of iteration order.
func bagContentHash(bag *jsontype.Bag) uint64 {
	var h uint64 = 0x9E3779B97F4A7C15
	bag.Each(func(t *jsontype.Type, n int) {
		h += mix64(mix64(t.ID()) ^ uint64(n))
	})
	return h
}

// epochHash folds the pass-① decisions and pass-② plans of a decider into
// the memo-invalidation key. Each decision and each plan entry is hashed
// independently and the results summed, so tree and map order are
// irrelevant. Paths enter through their path hashes and key sets through
// their hash canons (keySetHash), so no string is rebuilt.
func (d *pipelineDecider) epochHash() uint64 {
	var h uint64
	d.tree.each(func(n *pathNode) {
		if !n.dec.hasArr && !n.dec.hasObj {
			return
		}
		dec := uint64(boolByte(n.dec.hasArr)) | uint64(n.dec.arr)<<8 |
			uint64(boolByte(n.dec.hasObj))<<16 | uint64(n.dec.obj)<<24
		h += chain(1, n.hash, dec)
	})
	for key, plan := range d.plans {
		point := chain(2, pathHash(key.path), uint64(boolByte(key.arr)))
		h += chain(3, point, uint64(plan.n))
		for canon, cluster := range plan.assign {
			h += chain(point, canon, uint64(cluster))
		}
	}
	return h
}

// chain hashes a short sequence of words, order-sensitively.
func chain(words ...uint64) uint64 {
	var h uint64
	for _, w := range words {
		h = mix64(h + w)
	}
	return h
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
