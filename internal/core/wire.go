package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"jxplain/internal/entity"
	"jxplain/internal/jsontype"
)

// Versioned binary wire format for accumulated discovery state — the
// serialization that turns the pass-① monoid into a *distributed* monoid:
// map workers fold disjoint shards into sketches, ship the bytes, and a
// reducer merges them and runs passes ②/③ once, producing exactly the
// schema a single process would have (the JSONoid/Spark execution shape,
// natively).
//
// Layout (integers are unsigned LEB128 varints unless noted):
//
//	offset 0   magic "JXSK" (4 bytes)
//	offset 4   version byte (currently 1)
//	offset 5   flags byte: bit0 = bag section present,
//	                       bit1 = stats-trie section present
//	then sections, in fixed order, each framed as
//	           tag byte + varint body length + body:
//
//	'K'  key dictionary: count, then count × (length, bytes).
//	     Object keys referenced by the trie, interned to dense ids in
//	     first-appearance order of the (deterministic) encode walk.
//	'T'  type table: the jsontype structural codec (children before
//	     parents; refs 1..4 are the primitive singletons). Types are
//	     re-interned on decode, so pointer-identity equality — Bag dedup,
//	     memo keys, Similar's fast path — survives deserialization.
//	'B'  dedup bag: distinct count, then distinct × (type ref, count).
//	'S'  stats trie: total record count, then the root node, preorder:
//
//	     node := objCount
//	             [objCount>0] key set as a bitset over dictionary ids
//	                          (word count, words as 8-byte LE), then one
//	                          presence count per set bit in ascending id
//	                          order; similarity state (flag byte 0=empty,
//	                          1=max type follows, 2=dissimilar latch)
//	             arrCount
//	             [arrCount>0] length histogram (count, then count ×
//	                          (length, n) ascending); similarity state
//	             child count, then count × (key id, node), key-sorted
//	             elem count, then count × node
//
// Compatibility policy: any change to the layout above bumps the version
// byte, and decoders reject versions they do not know with a typed
// *SketchVersionError — there is no silent misparse path. Section framing
// (tag + length) exists so that a future version can add sections without
// re-deriving the offsets of the existing ones; within version 1 the
// section sequence is fixed and checked.
//
// Decoding is total: corrupt, truncated, or adversarial input yields a
// *SketchFormatError (or *SketchVersionError), never a panic — pinned by
// FuzzSketchDecode.

// sketchMagic brands every sketch file.
const sketchMagic = "JXSK"

// SketchFormatVersion is the wire-format version this build writes and
// the only one it accepts.
const SketchFormatVersion byte = 1

const (
	flagBag  byte = 1 << 0
	flagTrie byte = 1 << 1
)

// Section tags, in file order. The //jx:enum registration means any
// switch dispatching over these must account for every tag (exhausttag),
// so adding a section is lint-visible at every consumer.
//
//jx:enum wire section tags
const (
	secKeys byte = 'K'
	secType byte = 'T'
	secBag  byte = 'B'
	secTrie byte = 'S'
)

// maxTrieDepth bounds decode recursion. Encoded depth equals the maximal
// JSON nesting depth observed, far below this; the bound exists so that
// adversarial input cannot drive unbounded stack growth.
const maxTrieDepth = 100_000

// SketchVersionError reports a sketch whose version byte this build does
// not understand.
//
//jx:totalerror
type SketchVersionError struct {
	Got, Want byte
}

func (e *SketchVersionError) Error() string {
	return fmt.Sprintf("core: sketch format version %d not supported (this build reads version %d)", e.Got, e.Want)
}

// SketchFormatError reports structurally invalid sketch bytes.
//
//jx:totalerror
type SketchFormatError struct {
	Offset int    // byte offset where decoding failed, best effort
	Msg    string // what was wrong
}

func (e *SketchFormatError) Error() string {
	return fmt.Sprintf("core: invalid sketch data at offset %d: %s", e.Offset, e.Msg)
}

func formatErrf(offset int, format string, args ...any) error {
	return &SketchFormatError{Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// ---- encoding ----

// keyDict interns object keys to dense wire ids.
type keyDict struct {
	ids   map[string]int
	order []string
	size  int // encoded bytes of the keys in order
}

func newKeyDict() *keyDict { return &keyDict{ids: map[string]int{}} }

func (d *keyDict) id(key string) int {
	if id, ok := d.ids[key]; ok {
		return id
	}
	id := len(d.order)
	d.ids[key] = id
	d.order = append(d.order, key)
	d.size += uvarintLen(uint64(len(key))) + len(key)
	return id
}

// sectionLen is the exact size of the body appendSection writes.
func (d *keyDict) sectionLen() int { return uvarintLen(uint64(len(d.order))) + d.size }

func (d *keyDict) appendSection(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.order)))
	for _, k := range d.order {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	return buf
}

// sketchEncoder accumulates the shared dictionaries while the bag and
// trie bodies are built, then assembles the framed file. Encoders are
// pooled: a reduce round marshals once per merge step and the dictionary
// maps plus body scratch dominate its allocations, so they are kept warm
// across Marshal calls instead of rebuilt.
type sketchEncoder struct {
	keys  *keyDict
	types *jsontype.TypeEncoder

	// Bag and trie body scratch, owned by the encoder while pooled: the
	// type table and key dictionary grow while these bodies are built, so
	// the bodies are built first and copied into the exactly-sized output
	// by assemble. Releasing the encoder never aliases bytes handed to
	// the caller.
	bagBuf  []byte
	trieBuf []byte
}

var sketchEncoderPool = sync.Pool{
	New: func() any {
		return &sketchEncoder{keys: newKeyDict(), types: jsontype.NewTypeEncoder()}
	},
}

func getSketchEncoder() *sketchEncoder {
	return sketchEncoderPool.Get().(*sketchEncoder)
}

// release empties the dictionaries (keeping their capacity) and returns
// the encoder to the pool.
func (e *sketchEncoder) release() {
	clear(e.keys.ids)
	e.keys.order = e.keys.order[:0]
	e.keys.size = 0
	e.types.Reset()
	sketchEncoderPool.Put(e)
}

// appendSim appends a similarity-accumulator state.
func (e *sketchEncoder) appendSim(buf []byte, sim *jsontype.SimilarityAccumulator) []byte {
	switch {
	case !sim.Similar():
		return append(buf, 2)
	case sim.Max() == nil:
		return append(buf, 0)
	default:
		buf = append(buf, 1)
		return binary.AppendUvarint(buf, e.types.Ref(sim.Max()))
	}
}

// appendNode appends one trie node, preorder.
func (e *sketchEncoder) appendNode(buf []byte, t *statsTrie) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.objCount))
	if t.objCount > 0 {
		ids := make([]int, 0, len(t.keyCounts))
		counts := make(map[int]int, len(t.keyCounts))
		t.eachKeyCount(func(key string, n int) {
			id := e.keys.id(key)
			ids = append(ids, id)
			counts[id] = n
		})
		set := entity.NewKeySet(ids...)
		buf = binary.AppendUvarint(buf, uint64(len(set)))
		for _, w := range set {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		set.Each(func(id int) {
			buf = binary.AppendUvarint(buf, uint64(counts[id]))
		})
		buf = e.appendSim(buf, &t.objSim)
	}
	buf = binary.AppendUvarint(buf, uint64(t.arrCount))
	if t.arrCount > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(t.lenCounts)))
		t.eachLenCount(func(length, n int) {
			buf = binary.AppendUvarint(buf, uint64(length))
			buf = binary.AppendUvarint(buf, uint64(n))
		})
		buf = e.appendSim(buf, &t.arrSim)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.children)))
	t.eachChild(func(key string, c *statsTrie) {
		buf = binary.AppendUvarint(buf, uint64(e.keys.id(key)))
		buf = e.appendNode(buf, c)
	})
	buf = binary.AppendUvarint(buf, uint64(len(t.elems)))
	for _, c := range t.elems {
		buf = e.appendNode(buf, c)
	}
	return buf
}

// appendBag appends the dedup-bag body.
func (e *sketchEncoder) appendBag(buf []byte, bag *jsontype.Bag) []byte {
	buf = binary.AppendUvarint(buf, uint64(bag.Distinct()))
	bag.Each(func(t *jsontype.Type, n int) {
		buf = binary.AppendUvarint(buf, e.types.Ref(t))
		buf = binary.AppendUvarint(buf, uint64(n))
	})
	return buf
}

// uvarintLen returns the encoded size of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// framedLen is the on-wire cost of one section: tag byte, body-length
// varint, body.
func framedLen(body int) int { return 1 + uvarintLen(uint64(body)) + body }

// assemble frames the encoded bodies into the final file bytes. bagBody
// and trieBody may be nil (section absent). The output is allocated once,
// at its exact final size, summed from the section lengths; the key
// dictionary and type table know their sizes up front and are written
// straight into it. The returned slice is the caller's; none of the
// encoder's scratch leaks into it.
func (e *sketchEncoder) assemble(bagBody, trieBody []byte) []byte {
	keysLen, typeLen := e.keys.sectionLen(), e.types.Size()
	var flags byte
	total := len(sketchMagic) + 2 + framedLen(keysLen) + framedLen(typeLen)
	if bagBody != nil {
		flags |= flagBag
		total += framedLen(len(bagBody))
	}
	if trieBody != nil {
		flags |= flagTrie
		total += framedLen(len(trieBody))
	}

	out := make([]byte, 0, total)
	out = append(out, sketchMagic...)
	out = append(out, SketchFormatVersion, flags)
	out = binary.AppendUvarint(append(out, secKeys), uint64(keysLen))
	out = e.keys.appendSection(out)
	out = binary.AppendUvarint(append(out, secType), uint64(typeLen))
	out = e.types.Append(out)
	section := func(tag byte, body []byte) {
		out = append(out, tag)
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
	}
	if bagBody != nil {
		section(secBag, bagBody)
	}
	if trieBody != nil {
		section(secTrie, trieBody)
	}
	return out
}

// Marshal serializes the sketch in the versioned wire format. The sketch
// is not consumed: more records may be added and Marshal called again.
func (s *PathSketch) Marshal() ([]byte, error) {
	enc := getSketchEncoder()
	defer enc.release()
	trieBody := binary.AppendUvarint(enc.trieBuf[:0], uint64(s.records))
	trieBody = enc.appendNode(trieBody, s.root)
	enc.trieBuf = trieBody
	return enc.assemble(nil, trieBody), nil
}

// Marshal serializes the accumulator's state — the dedup bag and, unless
// detection sampling deferred it, the pass-① sketch — in the versioned
// wire format. The configuration itself is not serialized: a sketch file
// carries data statistics only, and the reducer that resumes from it
// supplies the configuration, so one set of map outputs can be reduced
// under different thresholds.
//
// A bounded accumulator (Config.Bounds) serializes its current snapshot:
// the reservoir's retained types as the bag, and no trie section — a
// rotated or decayed sketch no longer totals to the bag, which the
// decoder rightly rejects, so the receiver refolds statistics from the
// snapshot bag instead. Drivers that want the windowed statistics
// themselves should Marshal the rollup sketch (PathSketch.Marshal).
func (a *Accumulator) Marshal() ([]byte, error) {
	enc := getSketchEncoder()
	defer enc.release()
	bagBody := enc.appendBag(enc.bagBuf[:0], a.unionBag())
	enc.bagBuf = bagBody
	var trieBody []byte
	if a.sketch != nil && !a.cfg.Bounds.bounded() {
		trieBody = binary.AppendUvarint(enc.trieBuf[:0], uint64(a.sketch.records))
		trieBody = enc.appendNode(trieBody, a.sketch.root)
		enc.trieBuf = trieBody
	}
	return enc.assemble(bagBody, trieBody), nil
}

// ---- decoding ----

// sketchDecoder carries decode state and the running offset for error
// reporting. Decoders are pooled: the key dictionary, duplicate-entry
// set, and key-set scratch survive across decodes, so the merge-into
// path touches the allocator only for genuinely new trie structure.
type sketchDecoder struct {
	data  []byte
	pos   int
	keys  []string
	types *jsontype.TypeDecoder

	// seen deduplicates bag entries within one file on the merge-into
	// path (the live bag legitimately already holds the file's types, so
	// its own counts cannot serve as the duplicate check). Keyed by
	// intern id — pointer-keyed maps are barred by interncheck.
	seen map[uint64]struct{}
	// setScratch is the merge-into key-set buffer; each node consumes its
	// bitset before recursing, so one buffer serves the whole walk.
	setScratch entity.KeySet
	// records is the trie section's record count, which bounds every
	// node's objCount + arrCount: a record contributes at most one value
	// per concrete path.
	records uint64
}

var sketchDecoderPool = sync.Pool{New: func() any { return new(sketchDecoder) }}

func getSketchDecoder(data []byte) *sketchDecoder {
	d := sketchDecoderPool.Get().(*sketchDecoder)
	d.data = data
	d.pos = 0
	return d
}

// release drops references into the decoded file and returns the decoder
// to the pool, keeping the reusable scratch capacity.
func (d *sketchDecoder) release() {
	d.data = nil
	d.keys = d.keys[:0]
	d.types = nil
	clear(d.seen)
	sketchDecoderPool.Put(d)
}

func (d *sketchDecoder) errf(format string, args ...any) error {
	return formatErrf(d.pos, format, args...)
}

// The decode hot path reports failures through dedicated cold
// constructors: a //jx:hotpath function passing an int or string to a
// variadic ...any would box it per call site, so each malformed-input
// shape gets a typed, non-variadic helper instead (the scan.go errf
// convention).

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) varintErr(what string) error {
	return formatErrf(d.pos, "truncated or overlong varint (%s)", what)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) overflowErr(what string, v uint64) error {
	return formatErrf(d.pos, "%s %d exceeds remaining input (%d bytes)", what, v, len(d.data)-d.pos)
}

//jx:hotpath
func (d *sketchDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, d.varintErr(what)
	}
	d.pos += n
	return v, nil
}

// count reads a varint that counts items costing at least minBytes each,
// rejecting counts the remaining input cannot possibly satisfy — the
// guard that keeps corrupt headers from driving giant allocations.
//
//jx:hotpath
func (d *sketchDecoder) count(what string, minBytes int) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if remaining := len(d.data) - d.pos; v > uint64(remaining/minBytes) {
		return 0, d.overflowErr(what, v)
	}
	return int(v), nil
}

func (d *sketchDecoder) header() (flags byte, err error) {
	if len(d.data) < len(sketchMagic)+2 {
		return 0, formatErrf(0, "input shorter than header (%d bytes)", len(d.data))
	}
	if string(d.data[:len(sketchMagic)]) != sketchMagic {
		return 0, formatErrf(0, "bad magic %q", d.data[:len(sketchMagic)])
	}
	if v := d.data[len(sketchMagic)]; v != SketchFormatVersion {
		return 0, &SketchVersionError{Got: v, Want: SketchFormatVersion}
	}
	flags = d.data[len(sketchMagic)+1]
	d.pos = len(sketchMagic) + 2
	return flags, nil
}

// section checks the tag and enters the section body, returning the
// offset just past it.
func (d *sketchDecoder) section(tag byte) (end int, err error) {
	if d.pos >= len(d.data) {
		return 0, d.errf("missing section %q", tag)
	}
	if got := d.data[d.pos]; got != tag {
		return 0, d.errf("section tag %q where %q expected", got, tag)
	}
	d.pos++
	n, err := d.count(fmt.Sprintf("section %q length", tag), 1)
	if err != nil {
		return 0, err
	}
	return d.pos + n, nil
}

// finishSection validates the decoder consumed exactly the framed length.
func (d *sketchDecoder) finishSection(tag byte, end int) error {
	if d.pos != end {
		return d.errf("section %q body ends at %d, frame says %d", tag, d.pos, end)
	}
	return nil
}

func (d *sketchDecoder) decodeKeys() error {
	end, err := d.section(secKeys)
	if err != nil {
		return err
	}
	n, err := d.count("key count", 1)
	if err != nil {
		return err
	}
	d.keys = d.keys[:0]
	for i := 0; i < n; i++ {
		kl, err := d.count("key length", 1)
		if err != nil {
			return err
		}
		d.keys = append(d.keys, string(d.data[d.pos:d.pos+kl]))
		d.pos += kl
	}
	return d.finishSection(secKeys, end)
}

func (d *sketchDecoder) decodeTypes() error {
	end, err := d.section(secType)
	if err != nil {
		return err
	}
	dec, n, err := jsontype.DecodeTypeTable(d.data[d.pos:end])
	if err != nil {
		return formatErrf(d.pos, "%v", err)
	}
	d.pos += n
	d.types = dec
	return d.finishSection(secType, end)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) refRangeErr(what string, r uint64) error {
	return formatErrf(d.pos, "type ref %d out of range (%s)", r, what)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) nilRefErr(what string) error {
	return formatErrf(d.pos, "nil type ref where %s expected", what)
}

//jx:hotpath
func (d *sketchDecoder) typeRef(what string) (*jsontype.Type, error) {
	r, err := d.uvarint(what)
	if err != nil {
		return nil, err
	}
	t, ok := d.types.Lookup(r)
	if !ok {
		return nil, d.refRangeErr(what, r)
	}
	if t == nil {
		return nil, d.nilRefErr(what)
	}
	return t, nil
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) simTruncErr() error {
	return formatErrf(d.pos, "truncated similarity state")
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) simFlagErr(flag byte) error {
	return formatErrf(d.pos, "invalid similarity flag %d", flag)
}

//jx:hotpath
func (d *sketchDecoder) decodeSim(sim *jsontype.SimilarityAccumulator) error {
	if d.pos >= len(d.data) {
		return d.simTruncErr()
	}
	flag := d.data[d.pos]
	d.pos++
	switch flag {
	case 0:
		*sim = jsontype.RestoreSimilarityAccumulator(nil, true)
	case 1:
		t, err := d.typeRef("similarity max type")
		if err != nil {
			return err
		}
		*sim = jsontype.RestoreSimilarityAccumulator(t, true)
	case 2:
		*sim = jsontype.RestoreSimilarityAccumulator(nil, false)
	default:
		return d.simFlagErr(flag)
	}
	return nil
}

func (d *sketchDecoder) finish() error {
	if d.pos != len(d.data) {
		return d.errf("%d trailing bytes after final section", len(d.data)-d.pos)
	}
	return nil
}

const maxInt = int(^uint(0) >> 1)

// UnmarshalPathSketch decodes a sketch serialized with PathSketch.Marshal
// (or the trie section of an accumulator file) by merging it into a fresh
// sketch. The result is observationally equal to the sketch that was
// marshaled: identical Stats under every configuration, and safe to keep
// folding into. A bag section, when present, is validated into a
// throwaway bag.
func UnmarshalPathSketch(data []byte) (*PathSketch, error) {
	sketch := NewPathSketch()
	if err := mergeSketchFile(data, &jsontype.Bag{}, sketch, flagTrie); err != nil {
		return nil, err
	}
	return sketch, nil
}

// UnmarshalAccumulator decodes accumulated discovery state serialized
// with Accumulator.Marshal and resumes it under cfg. The bag section is
// required. When cfg keeps an unbounded live sketch the file merges
// straight into a fresh accumulator: the serialized trie is used if
// present and rebuilt from the bag otherwise (a fold over deduplicated
// types — same statistics, more CPU). A sampling configuration keeps no
// sketch and a bounded one must replay the bag through the reservoir and
// window clock, so there the file merges into a fresh bag (its trie still
// fully validated, then dropped) and the bag folds through AddBag,
// matching NewAccumulator.
func UnmarshalAccumulator(data []byte, cfg Config) (*Accumulator, error) {
	a := NewAccumulator(cfg)
	if a.sketch != nil && !cfg.Bounds.bounded() {
		if err := mergeSketchFile(data, a.bag, a.sketch, flagBag); err != nil {
			return nil, err
		}
		return a, nil
	}
	bag := &jsontype.Bag{}
	if err := mergeSketchFile(data, bag, nil, flagBag); err != nil {
		return nil, err
	}
	a.AddBag(bag)
	return a, nil
}

// MergeSketch decodes a serialized sketch and folds it into the
// accumulator — the reduce-side step. The result is identical to
// a.Merge(UnmarshalAccumulator(data, cfg)) for the accumulator's own
// configuration, but the decode folds *into* the live state: bag entries
// add straight into the live bag and trie counters accumulate in place,
// so a merge allocates only for structure the accumulator has not seen,
// never for a full intermediate accumulator.
//
// Error contract: the file is validated exactly as UnmarshalAccumulator
// validates it, but when MergeSketch returns an error the accumulator may
// already have absorbed a prefix of the file and must be discarded.
// Reduce drivers own a fresh accumulator per reduction and abort it
// wholesale on a corrupt shard, so there is no partial state to preserve.
func (a *Accumulator) MergeSketch(data []byte) error {
	if a.sketch == nil || a.cfg.Bounds.bounded() {
		// A sampling configuration keeps no live trie to fold into, and a
		// bounded one routes occurrences through the reservoir and the
		// window clock rather than straight into a live bag: decode into a
		// fresh accumulator and merge that.
		other, err := UnmarshalAccumulator(data, a.cfg)
		if err != nil {
			return err
		}
		a.Merge(other)
		return nil
	}
	return mergeSketchFile(data, a.bag, a.sketch, flagBag)
}

// mergeSketchFile is the sketch decoder — the only one: it validates a
// whole file and folds its sections into the destination pair, bag
// entries into bag and trie counters into sketch, in place. need is the
// section flag the caller requires. A nil sketch still validates the
// trie section fully, into a throwaway; a non-nil sketch also absorbs
// the bag's occurrences when the file carries no trie of its own.
func mergeSketchFile(data []byte, bag *jsontype.Bag, sketch *PathSketch, need byte) error {
	d := getSketchDecoder(data)
	defer d.release()
	flags, err := d.header()
	if err != nil {
		return err
	}
	if flags&^(flagBag|flagTrie) != 0 {
		return formatErrf(len(sketchMagic)+1, "unknown flag bits %#x", flags)
	}
	if flags&need == 0 {
		name := "bag"
		if need == flagTrie {
			name = "stats-trie"
		}
		return formatErrf(len(sketchMagic)+1, "no %s section in input", name)
	}
	if err := d.decodeKeys(); err != nil {
		return err
	}
	if err := d.decodeTypes(); err != nil {
		return err
	}
	fileHasTrie := flags&flagTrie != 0
	bagTotal := -1 // no bag section: nothing to cross-check the trie against
	if flags&flagBag != 0 {
		fold := sketch
		if fileHasTrie {
			fold = nil
		}
		if bagTotal, err = d.mergeBag(bag, fold); err != nil {
			return err
		}
	}
	if fileHasTrie {
		if sketch == nil {
			sketch = NewPathSketch()
		}
		if err := d.mergeTrie(sketch, bagTotal); err != nil {
			return err
		}
	}
	return d.finish()
}

// mergeBag folds the bag section into bag and returns the file's total
// record count. A non-nil fold sketch absorbs the occurrences as well.
func (d *sketchDecoder) mergeBag(bag *jsontype.Bag, fold *PathSketch) (int, error) {
	end, err := d.section(secBag)
	if err != nil {
		return 0, err
	}
	n, err := d.count("bag distinct count", 2)
	if err != nil {
		return 0, err
	}
	total, err := d.mergeBagEntries(bag, fold, n)
	if err != nil {
		return 0, err
	}
	return total, d.finishSection(secBag, end)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) bagCountErr(c uint64) error {
	return formatErrf(d.pos, "bag count %d out of range", c)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) dupEntryErr(t *jsontype.Type) error {
	return formatErrf(d.pos, "duplicate bag entry for type %s", t.Canon())
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) bagOverflowErr() error {
	return formatErrf(d.pos, "bag total overflows")
}

// mergeBagEntries decodes n (type ref, count) pairs straight into bag.
// Duplicate detection runs against this file's entries only — the
// destination bag legitimately may already contain types the file
// carries.
//
//jx:hotpath
func (d *sketchDecoder) mergeBagEntries(bag *jsontype.Bag, fold *PathSketch, n int) (int, error) {
	if d.seen == nil {
		d.seen = make(map[uint64]struct{}, n)
	}
	total := 0
	for i := 0; i < n; i++ {
		t, err := d.typeRef("bag type")
		if err != nil {
			return 0, err
		}
		c, err := d.uvarint("bag count")
		if err != nil {
			return 0, err
		}
		if c == 0 || c > uint64(maxInt) {
			return 0, d.bagCountErr(c)
		}
		if _, dup := d.seen[t.ID()]; dup {
			return 0, d.dupEntryErr(t)
		}
		d.seen[t.ID()] = struct{}{}
		if uint64(total)+c > uint64(maxInt) || uint64(bag.Len())+c > uint64(maxInt) {
			return 0, d.bagOverflowErr()
		}
		total += int(c)
		//jx:lint-ignore errtotal AddN asserts n > 0 and the c == 0 check above establishes it
		bag.AddN(t, int(c))
		if fold != nil {
			fold.AddN(t, int(c))
		}
	}
	return total, nil
}

// mergeTrie folds the stats-trie section into sketch, after checking the
// file's record count against its bag total (bagTotal < 0: no bag) and
// against what sketch can still count without overflowing.
func (d *sketchDecoder) mergeTrie(sketch *PathSketch, bagTotal int) error {
	end, err := d.section(secTrie)
	if err != nil {
		return err
	}
	records, err := d.uvarint("record count")
	if err != nil {
		return err
	}
	if records > uint64(maxInt-sketch.records) {
		return d.rangeErr("record count", records)
	}
	if bagTotal >= 0 && int(records) != bagTotal {
		return formatErrf(0, "trie records %d disagree with bag total %d", records, bagTotal)
	}
	d.records = records
	if err := d.mergeNode(sketch.root, 0); err != nil {
		return err
	}
	if err := d.finishSection(secTrie, end); err != nil {
		return err
	}
	sketch.records += int(records)
	return nil
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) depthErr() error {
	return formatErrf(d.pos, "trie deeper than %d", maxTrieDepth)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) rangeErr(what string, v uint64) error {
	return formatErrf(d.pos, "%s %d out of range", what, v)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) nodeCountErr(objCount, arrCount uint64) error {
	return formatErrf(d.pos, "node counts %d objects + %d arrays exceed the section's %d records", objCount, arrCount, d.records)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) bitsetErr() error {
	return formatErrf(d.pos, "key-set bitset not normalized (trailing zero word)")
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) keyIDErr(id int) error {
	return formatErrf(d.pos, "key id %d outside dictionary (%d keys)", id, len(d.keys))
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) countRangeErr(what string, n, limit uint64) error {
	return formatErrf(d.pos, "%s %d outside 1..%d", what, n, limit)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) histogramOrderErr(length uint64) error {
	return formatErrf(d.pos, "length histogram not strictly ascending at %d", length)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) childOrderErr(id uint64) error {
	return formatErrf(d.pos, "children not key-sorted at id %d", id)
}

// mergeNode folds one encoded trie node, preorder, into the live node t
// — the one trie walker of the wire format. Counters accumulate in place
// (setKeyCount and setLenCount add, combine-style) and child nodes
// materialize only where the live trie has none, so decoding into a fresh
// sketch and merging into a populated one are the same walk.
//
//jx:hotpath
func (d *sketchDecoder) mergeNode(t *statsTrie, depth int) error {
	if depth > maxTrieDepth {
		return d.depthErr()
	}
	objCount, err := d.uvarint("object count")
	if err != nil {
		return err
	}
	if objCount > d.records {
		return d.nodeCountErr(objCount, 0)
	}
	t.objCount += int(objCount)
	if objCount > 0 {
		words, err := d.count("key-set word count", 8)
		if err != nil {
			return err
		}
		set := d.setScratch[:0]
		for i := 0; i < words; i++ {
			set = append(set, binary.LittleEndian.Uint64(d.data[d.pos:]))
			d.pos += 8
		}
		d.setScratch = set
		if len(set) > 0 && set[len(set)-1] == 0 {
			return d.bitsetErr()
		}
		var countErr error
		set.Each(func(id int) {
			if countErr != nil {
				return
			}
			n, err := d.uvarint("key presence count")
			if err != nil {
				countErr = err
				return
			}
			if id >= len(d.keys) {
				countErr = d.keyIDErr(id)
				return
			}
			if n == 0 || n > objCount {
				countErr = d.countRangeErr("key presence count", n, objCount)
				return
			}
			t.setKeyCount(d.keys[id], int(n))
		})
		if countErr != nil {
			return countErr
		}
		var sim jsontype.SimilarityAccumulator
		if err := d.decodeSim(&sim); err != nil {
			return err
		}
		t.objSim.Combine(&sim)
	}
	arrCount, err := d.uvarint("array count")
	if err != nil {
		return err
	}
	if arrCount > d.records-objCount {
		return d.nodeCountErr(objCount, arrCount)
	}
	t.arrCount += int(arrCount)
	if arrCount > 0 {
		n, err := d.count("length histogram size", 2)
		if err != nil {
			return err
		}
		prev := -1
		for i := 0; i < n; i++ {
			length, err := d.uvarint("array length")
			if err != nil {
				return err
			}
			c, err := d.uvarint("length count")
			if err != nil {
				return err
			}
			if length > uint64(maxInt) || int(length) <= prev {
				return d.histogramOrderErr(length)
			}
			if c == 0 || c > arrCount {
				return d.countRangeErr("length count", c, arrCount)
			}
			prev = int(length)
			t.setLenCount(int(length), int(c))
		}
		var sim jsontype.SimilarityAccumulator
		if err := d.decodeSim(&sim); err != nil {
			return err
		}
		t.arrSim.Combine(&sim)
	}
	nc, err := d.count("child count", 2)
	if err != nil {
		return err
	}
	prevKey := -1
	for i := 0; i < nc; i++ {
		id, err := d.uvarint("child key id")
		if err != nil {
			return err
		}
		if id > uint64(len(d.keys)) || int(id) >= len(d.keys) {
			return d.keyIDErr(int(id))
		}
		if prevKey >= 0 && d.keys[id] <= d.keys[prevKey] {
			return d.childOrderErr(id)
		}
		prevKey = int(id)
		if err := d.mergeNode(t.child(d.keys[id]), depth+1); err != nil {
			return err
		}
	}
	ne, err := d.count("elem count", 1)
	if err != nil {
		return err
	}
	for i := 0; i < ne; i++ {
		if err := d.mergeNode(t.elem(i), depth+1); err != nil {
			return err
		}
	}
	return nil
}
