package jsontype

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// typeScanner derives structural types directly from raw JSON bytes. The
// encoding/json token API allocates per token (boxed tokens, one string
// per key and value, one json.Number per number); since discovery only
// needs the *shape*, this scanner walks the bytes itself and allocates
// only for structure it has never seen: object keys are cached in a
// per-scanner table, object fields and array elements live on reusable
// stacks, and the interner copies a slice only when the type is genuinely
// new. In steady state — every distinct type already interned — scanning
// a record performs no heap allocation at all.
//
// Shape speculation (after Mison, Li et al., PVLDB 2017): log-like JSON
// repeats the same keys in the same order under the same parent key, so
// every cached key remembers the last object seen under it (shapePred),
// and the scanner keeps one more for the top-level value. Each raw key is
// first compared with the predicted key at its position, which skips the
// key-table lookup, and an object whose fields and child types all match
// the prediction returns the prediction's interned type without sorting,
// hashing or taking an interner lock.
//
// The scanner validates structure (delimiters, literals, string framing)
// but is lenient inside numbers: any run of number characters is accepted
// where encoding/json would reject malformed exponents. Discovery treats
// all numbers as ℝ, so the distinction cannot change a schema.
type typeScanner struct {
	data []byte
	pos  int

	keys   map[string]*keyEntry // raw key bytes -> cached key
	root   keyEntry             // owner of the top-level value's prediction
	slots  []slot               // shared stack for in-flight object fields
	fields []Field              // scratch for one object's sorted fields
	elems  []*Type              // shared stack for in-flight array elements

	// objects counts the objects scanned and hits those whose type the
	// prediction supplied; tests read them to measure speculation.
	objects, hits int
}

// keyEntry caches one raw key byte sequence. Entries are unique per raw
// sequence within a scanner, so entry pointers compare raw keys.
type keyEntry struct {
	key  string     // decoded key
	raw  string     // bytes between the quotes; shares key's bytes when equal
	hash uint64     // hashKey(key)
	pred *shapePred // last object scanned under this key; nil until one is
}

// shapePred is the prediction for the objects under one key: the fields of
// the last one in source order and the type they interned to. Objects in
// an array share their key's prediction, and so do objects nested under
// the same key, so a prediction may be overwritten while an enclosing
// object is still being scanned; it is re-verified in full at '}'.
type shapePred struct {
	slots []slot
	t     *Type
}

// slot is one scanned object field: the cached key and the child's type.
type slot struct {
	e *keyEntry
	t *Type
}

var scannerPool = sync.Pool{
	New: func() any { return &typeScanner{keys: map[string]*keyEntry{}} },
}

// scanOne scans a single JSON value; trailing non-space content is an
// error.
//
//jx:hotpath
func scanOne(data []byte) (*Type, error) {
	s := scannerPool.Get().(*typeScanner)
	defer scannerPool.Put(s)
	return s.one(data)
}

// one scans data as a single JSON value with s.
//
//jx:hotpath
func (s *typeScanner) one(data []byte) (*Type, error) {
	s.reset(data)
	t, err := s.value(&s.root)
	if err != nil {
		return nil, err
	}
	s.skipSpace()
	if s.pos < len(s.data) {
		return nil, s.errf("trailing content after JSON value")
	}
	return t, nil
}

// scanAll scans a stream of whitespace-separated JSON values, appending
// their types to out. On error the types scanned so far are returned with
// it.
//
//jx:hotpath
func scanAll(data []byte, out []*Type) ([]*Type, error) {
	s := scannerPool.Get().(*typeScanner)
	defer scannerPool.Put(s)
	s.reset(data)
	for {
		s.skipSpace()
		if s.pos >= len(s.data) {
			return out, nil
		}
		t, err := s.value(&s.root)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

//jx:hotpath
func (s *typeScanner) reset(data []byte) {
	s.data, s.pos = data, 0
	s.slots = s.slots[:0]
	s.elems = s.elems[:0]
}

//jx:hotpath
func (s *typeScanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// errf builds scan errors; hot-path functions call it only on malformed
// input, so the fmt allocation is off the steady state by construction.
//
//jx:coldpath error construction runs once per malformed document, not per record
func (s *typeScanner) errf(msg string) error {
	return fmt.Errorf("jsontype: %s at offset %d", msg, s.pos)
}

// value scans one value; owner holds the prediction for an object there.
//
//jx:hotpath
func (s *typeScanner) value(owner *keyEntry) (*Type, error) {
	s.skipSpace()
	if s.pos >= len(s.data) {
		return nil, s.errf("unexpected end of JSON")
	}
	switch c := s.data[s.pos]; {
	case c == '{':
		return s.object(owner)
	case c == '[':
		return s.array(owner)
	case c == '"':
		if _, err := s.stringEnd(); err != nil {
			return nil, err
		}
		return String, nil
	case c == 't':
		return s.literal("true", Bool)
	case c == 'f':
		return s.literal("false", Bool)
	case c == 'n':
		return s.literal("null", Null)
	case c == '-' || (c >= '0' && c <= '9'):
		return s.number()
	}
	return nil, s.errf("unexpected character")
}

//jx:hotpath
func (s *typeScanner) literal(lit string, t *Type) (*Type, error) {
	// The string(...) conversion is a comparison operand; the compiler
	// elides the copy.
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return nil, s.errf("invalid literal")
	}
	s.pos += len(lit)
	return t, nil
}

//jx:hotpath
func (s *typeScanner) number() (*Type, error) {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			s.pos++
			continue
		}
		break
	}
	return Number, nil
}

// Broadcast bytes for the word-at-a-time string scan.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// quoteOrBackslash flags, in bit 7 of each byte, the bytes of w that are
// '"' or '\\' (the SWAR zero-byte test applied to w xor each broadcast
// byte). The borrow can also flag bytes above the first match, never
// below it, so the lowest flag is always exact.
//
//jx:hotpath
func quoteOrBackslash(w uint64) uint64 {
	q := w ^ lowBits*'"'
	b := w ^ lowBits*'\\'
	return ((q-lowBits)&^q | (b-lowBits)&^b) & highBits
}

// stringEnd consumes a string whose opening quote is at s.pos, finding
// the next '"' or '\\' eight bytes at a time, and reports whether the
// string holds escapes. Only a key's content is ever decoded; a value's
// kind is all discovery needs.
//
//jx:hotpath
func (s *typeScanner) stringEnd() (escaped bool, err error) {
	data, pos := s.data, s.pos+1
	for {
		for pos+8 <= len(data) {
			if m := quoteOrBackslash(binary.LittleEndian.Uint64(data[pos:])); m != 0 {
				pos += bits.TrailingZeros64(m) >> 3
				break
			}
			pos += 8
		}
		if pos >= len(data) {
			s.pos = pos
			return escaped, s.errf("unterminated string")
		}
		switch data[pos] {
		case '"':
			s.pos = pos + 1
			return escaped, nil
		case '\\':
			escaped = true
			pos += 2
		default:
			pos++
		}
	}
}

// key consumes the object key of field i of an object predicted by p and
// returns its cache entry: the predicted key when the raw bytes match it,
// else the key table's entry, decoding the key on its first occurrence.
//
//jx:hotpath
func (s *typeScanner) key(p *shapePred, i int) (*keyEntry, error) {
	start := s.pos + 1
	escaped, err := s.stringEnd()
	if err != nil {
		return nil, err
	}
	raw := s.data[start : s.pos-1]
	if i < len(p.slots) {
		if e := p.slots[i].e; string(raw) == e.raw {
			return e, nil
		}
	}
	if e, ok := s.keys[string(raw)]; ok { // no-alloc lookup
		return e, nil
	}
	return s.internKey(raw, s.data[start-1:s.pos], escaped)
}

// internKey decodes a key seen for the first time and caches it under its
// raw bytes. It runs once per distinct raw key byte sequence — cold by
// construction — so it may allocate (the cache entry) and lean on
// encoding/json for escape decoding.
//
//jx:coldpath runs once per distinct raw key; steady state hits the key table
func (s *typeScanner) internKey(raw, quoted []byte, escaped bool) (*keyEntry, error) {
	e := &keyEntry{raw: string(raw)}
	e.key = e.raw
	if escaped {
		if err := json.Unmarshal(quoted, &e.key); err != nil {
			return nil, s.errf("invalid object key")
		}
	}
	e.hash = hashKey(e.key)
	s.keys[e.raw] = e
	return e, nil
}

// newPred allocates the prediction for the first object under e.
//
//jx:coldpath runs once per key that ever holds an object
func (e *keyEntry) newPred() *shapePred {
	e.pred = &shapePred{}
	return e.pred
}

//jx:hotpath
func (s *typeScanner) object(owner *keyEntry) (*Type, error) {
	s.pos++ // '{'
	p := owner.pred
	if p == nil {
		p = owner.newPred()
	}
	mark := len(s.slots)
	s.skipSpace()
	if s.pos >= len(s.data) {
		return nil, s.errf("unterminated object")
	}
	if s.data[s.pos] == '}' {
		s.pos++
	} else {
		for {
			s.skipSpace()
			if s.pos >= len(s.data) || s.data[s.pos] != '"' {
				return nil, s.errf("expected object key")
			}
			e, err := s.key(p, len(s.slots)-mark)
			if err != nil {
				return nil, err
			}
			s.skipSpace()
			if s.pos >= len(s.data) || s.data[s.pos] != ':' {
				return nil, s.errf("expected ':' after object key")
			}
			s.pos++
			v, err := s.value(e)
			if err != nil {
				return nil, err
			}
			s.slots = append(s.slots, slot{e: e, t: v})
			s.skipSpace()
			if s.pos >= len(s.data) {
				return nil, s.errf("unterminated object")
			}
			if c := s.data[s.pos]; c == ',' {
				s.pos++
				continue
			} else if c == '}' {
				s.pos++
				break
			}
			return nil, s.errf("expected ',' or '}' in object")
		}
	}
	seg := s.slots[mark:]
	t := p.t
	s.objects++
	if p.matches(seg) {
		s.hits++
	} else {
		t = s.internSlots(p, seg)
	}
	s.slots = s.slots[:mark]
	return t, nil
}

// matches reports whether seg is exactly the predicted object: the same
// key entries (hence the same raw keys) with the same child pointers in
// the same order. Such an object sorts and dedupes to the same fields, so
// it interns to p.t.
//
//jx:hotpath
func (p *shapePred) matches(seg []slot) bool {
	if p.t == nil || len(p.slots) != len(seg) {
		return false
	}
	for i := range seg {
		if p.slots[i] != seg[i] {
			return false
		}
	}
	return true
}

// internSlots interns the object seg was scanned from and makes it p's
// prediction. seg is sorted in place.
//
//jx:hotpath
func (s *typeScanner) internSlots(p *shapePred, seg []slot) *Type {
	p.slots = append(p.slots[:0], seg...)
	sortSlotsStable(seg)
	// Duplicate keys: last occurrence wins, mirroring encoding/json. The
	// stable sort keeps equal keys in source order, so each run of equal
	// keys keeps its last element. Distinct raw keys can decode to the
	// same key ("a" and "\u0061"), so runs compare decoded keys.
	s.fields = s.fields[:0]
	h := hashPrimitive(KindObject)
	for i, sl := range seg {
		if i+1 < len(seg) && seg[i+1].e.key == sl.e.key {
			continue
		}
		s.fields = append(s.fields, Field{Key: sl.e.key, Type: sl.t})
		h = mixField(h, sl.e.hash, sl.t.id)
	}
	p.t = internObjectScratch(h, s.fields)
	return p.t
}

//jx:hotpath
func (s *typeScanner) array(owner *keyEntry) (*Type, error) {
	s.pos++ // '['
	mark := len(s.elems)
	s.skipSpace()
	if s.pos >= len(s.data) {
		return nil, s.errf("unterminated array")
	}
	if s.data[s.pos] == ']' {
		s.pos++
		return internArrayScratch(nil), nil
	}
	for {
		v, err := s.value(owner)
		if err != nil {
			return nil, err
		}
		s.elems = append(s.elems, v)
		s.skipSpace()
		if s.pos >= len(s.data) {
			return nil, s.errf("unterminated array")
		}
		if c := s.data[s.pos]; c == ',' {
			s.pos++
			continue
		} else if c == ']' {
			s.pos++
			break
		}
		return nil, s.errf("expected ',' or ']' in array")
	}
	t := internArrayScratch(s.elems[mark:])
	s.elems = s.elems[:mark]
	return t, nil
}

// sortSlotsStable sorts fields by decoded key, stably. Small objects —
// the overwhelming majority of JSON objects — use an allocation-free
// insertion sort; wide objects fall back to sortSlotsWide.
//
//jx:hotpath
func sortSlotsStable(seg []slot) {
	if len(seg) <= 24 {
		for i := 1; i < len(seg); i++ {
			f := seg[i]
			j := i - 1
			for j >= 0 && seg[j].e.key > f.e.key {
				seg[j+1] = seg[j]
				j--
			}
			seg[j+1] = f
		}
		return
	}
	sortSlotsWide(seg)
}

// sortSlotsWide handles the >24-field case, where sort.SliceStable's
// boxing of the slice is dwarfed by the comparisons anyway.
//
//jx:coldpath objects wider than 24 fields are rare; the sort dominates the boxing
func sortSlotsWide(seg []slot) {
	sort.SliceStable(seg, func(i, j int) bool { return seg[i].e.key < seg[j].e.key })
}
