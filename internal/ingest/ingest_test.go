package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
)

func jsonl(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"id":%d,"tag":"t%d"}`+"\n", i, i%3)
	}
	return b.String()
}

func TestEachChunksInOrder(t *testing.T) {
	for _, opts := range []Options{
		{ChunkSize: 1, Workers: 4},
		{ChunkSize: 7, Workers: 3},
		{ChunkSize: 7, Workers: 3, JSONL: true},
		{ChunkSize: 1000, Workers: 2},
		{}, // defaults
	} {
		var indices []int
		total := 0
		n, err := Each(context.Background(), strings.NewReader(jsonl(50)), opts, func(c Chunk) error {
			indices = append(indices, c.Index)
			total += c.Records
			if c.Records != c.Bag.Len() {
				t.Errorf("Records %d != Bag.Len %d", c.Records, c.Bag.Len())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if n != 50 || total != 50 {
			t.Errorf("opts %+v: n=%d total=%d", opts, n, total)
		}
		for i, idx := range indices {
			if idx != i {
				t.Errorf("opts %+v: chunk %d delivered at position %d", opts, idx, i)
			}
		}
	}
}

func TestEachDeduplicatesWithinChunk(t *testing.T) {
	input := strings.Repeat(`{"a":1}`+"\n", 40)
	_, err := Each(context.Background(), strings.NewReader(input), Options{ChunkSize: 40, Workers: 2}, func(c Chunk) error {
		if c.Bag.Distinct() != 1 || c.Bag.Len() != 40 {
			t.Errorf("distinct=%d len=%d", c.Bag.Distinct(), c.Bag.Len())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEachConcatenatedAndBlankLines(t *testing.T) {
	input := "{\"a\":1} {\"a\":2}\n\n  \n[1,2] \"s\" 3 true null"
	total, err := Each(context.Background(), strings.NewReader(input), Options{ChunkSize: 2, Workers: 2}, func(Chunk) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 {
		t.Errorf("total = %d, want 7", total)
	}
}

func TestEachDecodeErrors(t *testing.T) {
	// JSONL errors carry physical line numbers, blank lines counted.
	for input, want := range map[string]string{
		"{\"a\":1}\n{bad\n":        "line 2:",
		"{\"a\":1}\n\n \r\n{bad\n": "line 4:",
	} {
		_, err := Each(context.Background(), strings.NewReader(input), Options{JSONL: true}, func(Chunk) error { return nil })
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%q: err = %v, want %s", input, err, want)
		}
	}
	// Concatenated truncation fails too.
	_, err := Each(context.Background(), strings.NewReader(`{"a":`), Options{}, func(Chunk) error { return nil })
	if err == nil {
		t.Error("truncated input should fail")
	}
}

// bagCount is a BagFolder that counts the records folded into it.
type bagCount int

func (c *bagCount) AddBag(b *jsontype.Bag) { *c += bagCount(b.Len()) }

// A stray top-level ']' or '}' in concatenated JSON is a framing error
// naming the record it stands in for; json.Decoder.More alone treats it
// as the end of the stream and would drop every record after it.
func TestConcatenatedStrayCloserFails(t *testing.T) {
	for _, input := range []string{
		`{"a":1} ] {"b":"x"}`,
		`{"a":1} } {"b":"x"}`,
		`{"a":1}]`,
	} {
		n := 0
		err := Records(strings.NewReader(input), Options{}, func([]byte) error { n++; return nil })
		if err == nil || !strings.HasPrefix(err.Error(), "record 2:") {
			t.Errorf("Records(%q) after %d records: err = %v, want record 2: …", input, n, err)
		}
		var folded bagCount
		_, err = Fold(context.Background(), strings.NewReader(input), Options{}, &folded)
		if err == nil || !strings.HasPrefix(err.Error(), "record 2:") {
			t.Errorf("Fold(%q) after %d records: err = %v, want record 2: …", input, folded, err)
		}
	}
	// Trailing whitespace is still a clean end.
	var folded bagCount
	if n, err := Fold(context.Background(), strings.NewReader("{\"a\":1} [2]\n\t "), Options{}, &folded); err != nil || n != 2 {
		t.Errorf("clean input: n = %d, err = %v", n, err)
	}
}

func TestEachCallbackError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := Each(context.Background(), strings.NewReader(jsonl(100)), Options{ChunkSize: 5, Workers: 4}, func(Chunk) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if calls != 1 {
		t.Errorf("callback called %d times after error", calls)
	}
}

// endlessReader yields records forever, so only cancellation can stop
// ingestion.
type endlessReader struct{ i int }

func (e *endlessReader) Read(p []byte) (int, error) {
	rec := []byte(fmt.Sprintf(`{"id":%d}`+"\n", e.i))
	e.i++
	n := copy(p, rec)
	return n, nil
}

func TestEachCancellationStopsPromptlyWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Each(ctx, &endlessReader{}, Options{ChunkSize: 64, Workers: 4}, func(Chunk) error { return nil })
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort ingestion promptly")
	}

	// Goroutines wind down after Each returns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Each(ctx, strings.NewReader(jsonl(10)), Options{}, func(Chunk) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestEachEmptyInput(t *testing.T) {
	n, err := Each(context.Background(), strings.NewReader(""), Options{}, func(Chunk) error {
		t.Error("no chunks expected")
		return nil
	})
	if err != nil || n != 0 {
		t.Errorf("n=%d err=%v", n, err)
	}
}

func TestEachMatchesDecodeAll(t *testing.T) {
	input := jsonl(137)
	want, err := jsontype.DecodeAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	wantBag := jsontype.NewBag(want...)

	got := &jsontype.Bag{}
	_, err = Each(context.Background(), strings.NewReader(input), Options{ChunkSize: 10, Workers: 4}, func(c Chunk) error {
		got.Merge(c.Bag)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != wantBag.Len() || got.Distinct() != wantBag.Distinct() {
		t.Fatalf("merged bag %d/%d, want %d/%d", got.Len(), got.Distinct(), wantBag.Len(), wantBag.Distinct())
	}
	// Insertion order of distinct types must match the sequential decode,
	// the property downstream determinism rests on.
	for i, ty := range wantBag.Types() {
		if got.Types()[i].Canon() != ty.Canon() {
			t.Fatalf("distinct type %d out of order", i)
		}
	}
}

// oracleLines is the JSONL framer ingest used before chunks became
// buffers: a bufio.Scanner over lines, with blank lines skipped. A
// record's size limit excludes its line terminator, so the scanner gets
// room for "\r\n" beyond MaxRecordBytes and longer records are rejected
// after it strips the terminator. It calls fn with each record's 1-based
// line number.
func oracleLines(r io.Reader, maxRecord int, fn func(line int, rec []byte)) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64), maxRecord+2)
	line := 0
	for scanner.Scan() {
		line++
		rec := scanner.Bytes()
		if len(rec) > maxRecord {
			return bufio.ErrTooLong
		}
		if len(bytes.Trim(rec, " \t\r\n")) > 0 {
			fn(line, rec)
		}
	}
	return scanner.Err()
}

// oracleEach is Each over oracleLines: one chunk per ChunkSize records.
func oracleEach(data []byte, opts Options) ([]Chunk, error) {
	var chunks []Chunk
	var decodeErr error
	err := oracleLines(bytes.NewReader(data), opts.MaxRecordBytes, func(line int, rec []byte) {
		if decodeErr != nil {
			return
		}
		if len(chunks) == 0 || chunks[len(chunks)-1].Records == opts.ChunkSize {
			chunks = append(chunks, Chunk{Bag: &jsontype.Bag{}, Index: len(chunks)})
		}
		t, err := jsontype.FromJSON(rec)
		if err != nil {
			decodeErr = fmt.Errorf("line %d: %w", line, err)
			return
		}
		c := &chunks[len(chunks)-1]
		c.Bag.Add(t)
		c.Records++
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	return chunks, err
}

// framerInput builds a JSONL stream of n records of varied shape and size
// (up to a few KiB, so reads and chunk cuts fall mid-record), with
// CRLF endings, blank and whitespace-only lines mixed in.
func framerInput(n int, final bool) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, `{"id":%d,"tag":"t%d"}`+"\n", i, i%3)
		case 1:
			fmt.Fprintf(&b, `{"id":%d,"pad":%q,"nested":{"a":[1,"x",{"b":null}]}}`+"\r\n", i, strings.Repeat("p", i%2500))
		case 2:
			b.WriteString("\n \t\r\n\r\n")
			fmt.Fprintf(&b, `  [%d,{"k":true}]  `+"\n", i)
		case 3:
			fmt.Fprintf(&b, `{"tag":"t%d","id":%d}`+"\n", i%3, i)
		case 4:
			fmt.Fprintf(&b, `{"s":%q}`+"\n", strings.Repeat("\\\"", i%700))
		}
	}
	if !final {
		b.WriteString(`{"last":1}`)
	}
	return b.Bytes()
}

// TestJSONLFramerMatchesOracle is the differential test of the buffer
// framer against oracleLines: Each delivers the same chunks (index,
// record count, bag types in order) and Records the same records, over
// chunk sizes on both sides of the framer's buffer sizes, readers that
// split records across reads, and records at the size limit.
func TestJSONLFramerMatchesOracle(t *testing.T) {
	const maxRecord = 100_000 // above one read, so a record spans several
	exact := fmt.Sprintf(`{"x":%q}`, strings.Repeat("y", maxRecord-8))
	inputs := map[string][]byte{
		"newline-terminated": framerInput(4000, true),
		"no final newline":   framerInput(4000, false),
		"exact max record":   []byte("{\"a\":1}\n" + exact + "\n" + exact),
		"exact max, CRLF":    []byte(exact + "\r\n" + exact + "\r\n{\"a\":1}\r\n"),
		"over max record":    []byte("{\"a\":1}\n\n" + exact + " \n{\"a\":1}\n"),
		"over max, CRLF":     []byte(exact + " \r\n"),
		"over max, no final": []byte("{\"a\":1}\n" + exact + " "),
		"whitespace only":    []byte("\n\r\n \t \n"),
		"empty":              nil,
		"decode error":       append(framerInput(300, true), "{\"a\":\n"...),
	}
	readers := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	for name, data := range inputs {
		for _, size := range []int{1, 2, 7, 2048} {
			opts := Options{ChunkSize: size, Workers: 3, JSONL: true, MaxRecordBytes: maxRecord}
			want, wantErr := oracleEach(data, opts)
			for rname, wrap := range readers {
				if rname == "one byte" && len(data) > 1<<20 && size != 2048 {
					continue // the byte-at-a-time reads are covered by the smaller inputs
				}
				var got []Chunk
				_, err := Each(context.Background(), wrap(bytes.NewReader(data)), opts, func(c Chunk) error {
					got = append(got, c)
					return nil
				})
				where := fmt.Sprintf("%s, ChunkSize %d, %s reader", name, size, rname)
				if !sameErr(err, wantErr) {
					t.Fatalf("%s: err %v, oracle %v", where, err, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d chunks, oracle %d", where, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Index != w.Index || g.Records != w.Records || !sameTypes(g.Bag, w.Bag) {
						t.Fatalf("%s: chunk %d = (index %d, %d records, %d types), oracle (%d, %d, %d)",
							where, i, g.Index, g.Records, g.Bag.Distinct(), w.Index, w.Records, w.Bag.Distinct())
					}
				}
			}
		}
		var wantRecs, gotRecs [][]byte
		wantErr := oracleLines(bytes.NewReader(data), maxRecord, func(_ int, rec []byte) {
			wantRecs = append(wantRecs, append([]byte(nil), rec...))
		})
		for rname, wrap := range readers {
			gotRecs = gotRecs[:0]
			err := Records(wrap(bytes.NewReader(data)), Options{JSONL: true, MaxRecordBytes: maxRecord}, func(rec []byte) error {
				gotRecs = append(gotRecs, append([]byte(nil), rec...))
				return nil
			})
			if !sameErr(err, wantErr) {
				t.Fatalf("%s, Records, %s reader: err %v, oracle %v", name, rname, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if len(gotRecs) != len(wantRecs) {
				t.Fatalf("%s, Records, %s reader: %d records, oracle %d", name, rname, len(gotRecs), len(wantRecs))
			}
			for i := range wantRecs {
				if !bytes.Equal(gotRecs[i], wantRecs[i]) {
					t.Fatalf("%s, Records, %s reader: record %d = %.40q, oracle %.40q", name, rname, i, gotRecs[i], wantRecs[i])
				}
			}
		}
	}
}

// sameErr compares a framer error with the oracle's: both nil, the same
// decode error, or both over the size limit.
func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	if errors.Is(want, bufio.ErrTooLong) {
		return errors.Is(got, bufio.ErrTooLong)
	}
	return got.Error() == want.Error()
}

func sameTypes(a, b *jsontype.Bag) bool {
	if a.Distinct() != b.Distinct() {
		return false
	}
	for i, t := range a.Types() {
		if t != b.Types()[i] || a.Count(i) != b.Count(i) {
			return false
		}
	}
	return true
}

// TestJSONLNonJSONWhitespaceLineIsARecord: a line holding only whitespace
// JSON does not allow (vertical tab, form feed, NEL, NBSP) is not blank.
// Each fails on it with its line number instead of dropping it, and
// Records hands it on, so a sharded run fails the same way.
func TestJSONLNonJSONWhitespaceLineIsARecord(t *testing.T) {
	for _, ws := range []string{"\v", "\f", "\u0085", "\u00a0", " \u00a0\t"} {
		input := "{\"a\":1}\n" + ws + "\n{\"a\":2}\n"
		_, err := Each(context.Background(), strings.NewReader(input), Options{JSONL: true}, func(Chunk) error { return nil })
		if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Errorf("Each over %q: err = %v, want a line 2 error", input, err)
		}
		var recs []string
		if err := Records(strings.NewReader(input), Options{JSONL: true}, func(rec []byte) error {
			recs = append(recs, string(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 || recs[1] != ws {
			t.Errorf("Records over %q = %q, want the whitespace line as record 2", input, recs)
		}
	}
}

// TestJSONLRecordTooLong: a line over MaxRecordBytes fails with its line
// number, in Each and in Records, and still matches bufio.ErrTooLong.
func TestJSONLRecordTooLong(t *testing.T) {
	input := "{\"a\":1}\n\n{\"b\":\"0123456789abcdef\"}\n{\"a\":1}\n"
	opts := Options{JSONL: true, MaxRecordBytes: 16}
	const want = "line 3: record exceeds MaxRecordBytes (16 bytes)"
	_, err := Each(context.Background(), strings.NewReader(input), opts, func(Chunk) error { return nil })
	if err == nil || err.Error() != want || !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("Each: err = %v, want %q wrapping bufio.ErrTooLong", err, want)
	}
	err = Records(strings.NewReader(input), opts, func([]byte) error { return nil })
	if err == nil || err.Error() != want || !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("Records: err = %v, want %q wrapping bufio.ErrTooLong", err, want)
	}

	// The limit excludes the line terminator, so a record of exactly
	// MaxRecordBytes is accepted however its line ends.
	for _, input := range []string{"{\"b\":\"01234567\"}\n", "{\"b\":\"01234567\"}\r\n", "{\"b\":\"01234567\"}"} {
		if _, err := Each(context.Background(), strings.NewReader(input), opts, func(Chunk) error { return nil }); err != nil {
			t.Errorf("Each over %q: %v", input, err)
		}
		if err := Records(strings.NewReader(input), opts, func([]byte) error { return nil }); err != nil {
			t.Errorf("Records over %q: %v", input, err)
		}
	}

	// A line that never ends fails once it passes the limit, rather than
	// being buffered until memory runs out.
	if _, err := Each(context.Background(), &endlessLine{}, opts, func(Chunk) error { return nil }); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("Each over an endless line: err = %v", err)
	}
	if err := Records(&endlessLine{}, opts, func([]byte) error { return nil }); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("Records over an endless line: err = %v", err)
	}
}

// endlessLine is a reader of one line that never ends. It fails the read
// after 16 MiB, which a framer holding the line to its limit never asks
// for.
type endlessLine struct{ n int }

func (e *endlessLine) Read(p []byte) (int, error) {
	if e.n >= 16<<20 {
		return 0, errors.New("endlessLine: read far past the record limit")
	}
	for i := range p {
		p[i] = 'x'
	}
	e.n += len(p)
	return len(p), nil
}

// eventsJSONL encodes n github records, the perfbench events input.
func eventsJSONL(tb testing.TB, n int) []byte {
	tb.Helper()
	g, ok := dataset.ByName("github")
	if !ok {
		tb.Fatal("github generator missing")
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, rec := range g.Generate(n, 1) {
		if err := enc.Encode(rec.Value); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestEachAllocatesPerChunk pins the framing cost: JSONL chunks are
// buffers, not copies of every record, so a pass over N records whose
// types are already interned allocates per chunk, not per record.
func TestEachAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so scanners are rebuilt per record")
	}
	const n = 10000
	data := eventsJSONL(t, n)
	each := func() {
		if _, err := Each(context.Background(), bytes.NewReader(data), Options{JSONL: true}, func(Chunk) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	each() // intern the types
	if allocs := testing.AllocsPerRun(3, each); allocs >= n/10 {
		t.Errorf("Each over %d records: %.0f allocations, want fewer than %d", n, allocs, n/10)
	}
}

// BenchmarkIngestEvents measures JSONL ingestion (framing plus decode)
// of github event records into chunk bags.
func BenchmarkIngestEvents(b *testing.B) {
	data := eventsJSONL(b, 10000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Each(context.Background(), bytes.NewReader(data), Options{JSONL: true}, func(Chunk) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
