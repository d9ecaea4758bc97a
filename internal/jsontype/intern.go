package jsontype

import (
	"sync"
	"sync/atomic"
)

// Hash-consing interner. Every complex Type is registered in a sharded
// global table at construction, keyed by a 64-bit structural hash that
// mixes one word per child: the child's type id, preceded for objects by
// the field key's hash. Child ids are unique by induction (children are
// interned before their parent), so the hash covers the whole subtree in
// O(direct children) work; hash collisions are resolved by a shallow
// structural scan of the bucket, which again only compares child
// *pointers*. Because ids follow intern order, the hash is per-process:
// nothing outside the interner may read it.
//
// Consequences the rest of the system builds on:
//
//   - Equal is pointer identity,
//   - Bag and memo tables key on the dense uint64 id instead of the
//     canonical string,
//   - repeated records allocate no new type nodes — only the first
//     occurrence of each distinct subtree costs a node.
//
// The table is append-only and safe for concurrent use (the ingest worker
// pool decodes in parallel). It grows with the distinct structure observed
// over the process lifetime — the same asymptote as any single retained
// Bag — and is never reset: released types would otherwise be re-interned
// as fresh pointers while stale pointers to the old nodes survive,
// silently breaking pointer equality.

const internShardCount = 64 // power of two; shard = hash & (count-1)

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]*Type // structural hash -> bucket
}

var (
	internShards [internShardCount]internShard
	internNextID atomic.Uint64 // ids 1..4 are the primitive singletons
)

func init() {
	for i := range internShards {
		internShards[i].m = make(map[uint64][]*Type)
	}
	internNextID.Store(4)
}

// newPrimitiveSingleton builds one of the four primitive singletons with a
// fixed id and a pre-cached canonical form. Kinds are 0..3, ids 1..4.
func newPrimitiveSingleton(k Kind, canon string) *Type {
	t := &Type{kind: k, hash: hashPrimitive(k), id: uint64(k) + 1}
	t.canon.Store(&canon)
	return t
}

// FNV-1a 64-bit, for primitives and key strings.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

//jx:hotpath
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

//jx:hotpath
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

//jx:hotpath
func hashPrimitive(k Kind) uint64 {
	return fnvByte(fnvOffset, byte(k))
}

// hashKey is an object key's word in its parent's hash. The scanner
// computes it once per distinct raw key and keeps it in its key table.
//
//jx:hotpath
func hashKey(key string) uint64 { return fnvString(fnvOffset, key) }

// mixWord folds one 64-bit word into a complex type's hash: a multiply to
// spread low bits up, then a shift to bring high bits back down, since the
// shard index reads the low bits.
//
//jx:hotpath
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

//jx:hotpath
func hashArray(elems []*Type) uint64 {
	h := hashPrimitive(KindArray)
	for _, e := range elems {
		h = mixWord(h, e.id)
	}
	return h
}

// mixField adds one field to an object's hash. An object's hash starts
// from hashPrimitive(KindObject) and mixes each field's key hash and child
// id in key order. hashObject computes it from the field strings, and the
// scanner from the key hashes its key table holds; both must agree, or
// one type would intern twice (FuzzScan and FuzzScanSequence pin this).
//
//jx:hotpath
func mixField(h, keyHash, id uint64) uint64 { return mixWord(mixWord(h, keyHash), id) }

//jx:hotpath
func hashObject(fields []Field) uint64 {
	h := hashPrimitive(KindObject)
	for _, f := range fields {
		h = mixField(h, hashKey(f.Key), f.Type.id)
	}
	return h
}

// internArray returns the canonical *Type for the array [elems...]. The
// slice is retained on a miss.
//
//jx:hotpath
func internArray(elems []*Type) *Type { return internArraySlice(elems, false) }

// internArrayScratch is internArray for callers reusing a scratch buffer:
// the slice is copied on a miss and never retained, so the caller may
// overwrite it immediately — this is what keeps the scanner's steady state
// allocation-free once the distinct types have been seen.
//
//jx:hotpath
func internArrayScratch(elems []*Type) *Type { return internArraySlice(elems, true) }

//jx:hotpath
func internArraySlice(elems []*Type, scratch bool) *Type {
	h := hashArray(elems)
	shard := &internShards[h&(internShardCount-1)]
	shard.mu.Lock()
	for _, c := range shard.m[h] {
		if c.kind == KindArray && sameElems(c.elems, elems) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		elems = append([]*Type(nil), elems...)
	}
	t := &Type{kind: KindArray, elems: elems, hash: h, id: internNextID.Add(1)}
	shard.m[h] = append(shard.m[h], t)
	shard.mu.Unlock()
	return t
}

// internObject returns the canonical *Type for the key-sorted fields. The
// slice is retained on a miss.
//
//jx:hotpath
func internObject(fields []Field) *Type { return internObjectSlice(hashObject(fields), fields, false) }

// internObjectScratch is internObject for fields whose hash the caller
// already computed, with copy-on-miss semantics (see internArrayScratch).
//
//jx:hotpath
func internObjectScratch(h uint64, fields []Field) *Type { return internObjectSlice(h, fields, true) }

//jx:hotpath
func internObjectSlice(h uint64, fields []Field, scratch bool) *Type {
	shard := &internShards[h&(internShardCount-1)]
	shard.mu.Lock()
	for _, c := range shard.m[h] {
		if c.kind == KindObject && sameFields(c.fields, fields) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		fields = append([]Field(nil), fields...)
	}
	t := &Type{kind: KindObject, fields: fields, hash: h, id: internNextID.Add(1)}
	shard.m[h] = append(shard.m[h], t)
	shard.mu.Unlock()
	return t
}

// sameElems compares two child lists by pointer — sound because children
// are already interned.
//
//jx:hotpath
func sameElems(a, b []*Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

//jx:hotpath
func sameFields(a, b []Field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Type != b[i].Type {
			return false
		}
	}
	return true
}

// InternedTypes reports the number of distinct complex types interned so
// far (primitives excluded) — an observability hook for memory accounting.
func InternedTypes() uint64 { return internNextID.Load() - 4 }
