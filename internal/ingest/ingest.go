// Package ingest reads a stream of JSON records (JSONL or concatenated
// JSON) in bounded chunks and turns each chunk into a deduplicated
// jsontype.Bag through a decode worker pool.
//
// This is the streaming front half of discovery. A single splitter
// goroutine frames raw records (a newline search for JSONL, a value-level
// token scan for concatenated JSON), batches them into chunks of
// Options.ChunkSize records, and hands the chunks to Options.Workers
// decoding goroutines; decoded chunks are re-sequenced and delivered to
// the caller strictly in input order, so downstream accumulation is
// deterministic regardless of worker scheduling. A JSONL chunk is one
// buffer holding its lines, which the workers split again themselves.
// Memory is bounded by O(ChunkSize · Workers) raw records in flight —
// never by the length of the stream — which is what lets the pipeline
// discover collections far larger than RAM.
//
// Cancellation: every stage watches the caller's context; on cancellation
// Each tears the stages down, waits for all goroutines to exit, and
// returns ctx.Err(). Each never leaks goroutines, also on decode errors
// and on callback errors.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"jxplain/internal/jsontype"
)

// Options bounds the chunked decode.
type Options struct {
	// ChunkSize is the number of records per chunk (default 2048).
	ChunkSize int
	// Workers is the decode worker count (default GOMAXPROCS).
	Workers int
	// JSONL frames records as non-blank lines (strict JSONL) instead of
	// scanning concatenated JSON values; errors then carry line numbers.
	JSONL bool
	// MaxRecordBytes caps a single record's size in JSONL mode: a longer
	// line fails with an error wrapping bufio.ErrTooLong (default 64 MiB).
	MaxRecordBytes int
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 2048
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 1 << 26
	}
	return o
}

// Chunk is one decoded, deduplicated chunk of the stream.
type Chunk struct {
	// Bag holds the chunk's record types with multiplicities.
	Bag *jsontype.Bag
	// Records is the number of record occurrences in the chunk
	// (Bag.Len()).
	Records int
	// Index is the chunk's 0-based position in the stream.
	Index int
}

// rawChunk is a batch of undecoded records: JSONL lines in one buffer, or
// concatenated-JSON values framed one by one.
type rawChunk struct {
	index   int
	first   int      // 1-based line of data's first line (JSONL), else ordinal of records[0]
	data    []byte   // JSONL: whole lines, blank ones included
	records [][]byte // concatenated JSON
}

// fold decodes the chunk's records into bag, in order.
func (c rawChunk) fold(bag *jsontype.Bag) error {
	for i, rec := range c.records {
		t, err := jsontype.FromJSON(rec)
		if err != nil {
			return fmt.Errorf("record %d: %w", c.first+i, err)
		}
		bag.Add(t)
	}
	line := c.first
	for data := c.data; len(data) > 0; line++ {
		rec := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			rec, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if jsontype.Blank(rec) {
			continue
		}
		t, err := jsontype.FromJSON(rec)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		bag.Add(t)
	}
	return nil
}

// Each streams r as bounded chunks, calling fn once per chunk, in input
// order, from the calling goroutine's ordering domain (fn calls never
// overlap). It returns the total record count. A non-nil error from fn
// stops ingestion and is returned as-is; decode errors and context
// cancellation abort likewise. All internal goroutines have exited by the
// time Each returns.
//
//jx:pool splitter/decoder fan-out communicates through channels only; re-sequencing is single-goroutine
func Each(ctx context.Context, r io.Reader, opts Options, fn func(Chunk) error) (int, error) {
	opts = opts.withDefaults()

	// An internal context lets fn errors and decode errors tear down the
	// splitter and workers without requiring the caller to cancel.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	raws := make(chan rawChunk, opts.Workers)
	type decoded struct {
		chunk Chunk
		err   error
	}
	results := make(chan decoded, opts.Workers)

	// Splitter: frame records and batch them into raw chunks.
	splitErr := make(chan error, 1)
	go func() {
		defer close(raws)
		splitErr <- split(ctx, r, opts, raws)
	}()

	// Decode workers: parse each record of a chunk and fold it into a bag.
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for raw := range raws {
				out := decoded{chunk: Chunk{Bag: &jsontype.Bag{}, Index: raw.index}}
				out.err = raw.fold(out.chunk.Bag)
				out.chunk.Records = out.chunk.Bag.Len()
				select {
				case results <- out:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Re-sequence: deliver chunks to fn strictly in stream order.
	total := 0
	pending := map[int]Chunk{}
	next := 0
	var firstErr error
	for res := range results {
		if firstErr != nil {
			continue // draining after failure
		}
		if res.err != nil {
			firstErr = res.err
			cancel()
			continue
		}
		pending[res.chunk.Index] = res.chunk
		for {
			chunk, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			total += chunk.Records
			if err := fn(chunk); err != nil {
				firstErr = err
				cancel()
				break
			}
		}
	}
	serr := <-splitErr
	if firstErr != nil {
		return total, firstErr
	}
	if serr != nil {
		return total, serr
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	return total, nil
}

// Records frames the stream record by record without decoding: each call
// to fn receives the raw bytes of one JSON record, newline excluded, in
// stream order. Only Options.JSONL and Options.MaxRecordBytes apply.
// Memory is bounded by the largest single record, never by the stream
// length, which is what lets a sharding driver cut a corpus into
// contiguous ranges while holding O(record) bytes.
//
// The slice passed to fn aliases an internal buffer and is only valid for
// the duration of the call; fn must copy it if it needs to keep it. A
// non-nil error from fn stops the scan and is returned as-is.
func Records(r io.Reader, opts Options, fn func(rec []byte) error) error {
	opts = opts.withDefaults()
	if opts.JSONL {
		lines := newJSONLLines(r, opts.MaxRecordBytes)
		for lines.next() {
			if jsontype.Blank(lines.rec) {
				continue
			}
			if err := fn(lines.rec); err != nil {
				return err
			}
		}
		return lines.err
	}
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	for record := 1; ; record++ {
		more, err := More(dec, record)
		if !more {
			return err
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return fmt.Errorf("record %d: %w", record, err)
		}
		if err := fn(raw); err != nil {
			return err
		}
	}
}

// More reports whether dec holds another top-level JSON value, the
// record-th of the stream. json.Decoder.More also answers false at a
// stray top-level ']' or '}' and on a read error, so a framing loop that
// stopped there would drop the rest of the stream without a word; More
// answers those with a "record N: …" error instead, and (false, nil)
// only at a clean end of input.
func More(dec *json.Decoder, record int) (bool, error) {
	if dec.More() {
		return true, nil
	}
	if _, err := dec.Token(); err != io.EOF {
		return false, fmt.Errorf("record %d: %w", record, err)
	}
	return false, nil
}

// split frames the stream into raw chunks. It returns nil at EOF and
// ctx.Err() when cancelled mid-stream.
func split(ctx context.Context, r io.Reader, opts Options, out chan<- rawChunk) error {
	send := func(c rawChunk) error {
		select {
		case out <- c:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	index := 0
	if opts.JSONL {
		// A chunk is one buffer of its lines, blank ones included, cut
		// right after every ChunkSize-th non-blank line: chunks hold
		// exactly the records they held when every record was framed
		// alone, since bounded ingestion rotates windows per chunk. The
		// chunk just cut sizes the next buffer.
		lines := newJSONLLines(r, opts.MaxRecordBytes)
		buf := make([]byte, 0, 1<<16)
		records, first := 0, 1
		for lines.next() {
			buf = append(append(buf, lines.rec...), '\n')
			if jsontype.Blank(lines.rec) {
				continue
			}
			if records++; records == opts.ChunkSize {
				if err := send(rawChunk{index: index, first: first, data: buf}); err != nil {
					return err
				}
				index++
				records, first = 0, lines.line+1
				buf = make([]byte, 0, len(buf)+len(buf)/8)
			}
		}
		if lines.err != nil {
			return lines.err
		}
		if records > 0 {
			return send(rawChunk{index: index, first: first, data: buf})
		}
		return nil
	}

	// Concatenated JSON: frame whole values with a RawMessage scan. The
	// bytes are re-parsed by the workers; framing is the cheap part and
	// stays sequential because value boundaries require a token scan.
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	var batch [][]byte
	firstRecord := 0
	for record := 1; ; record++ {
		if more, err := More(dec, record); !more {
			if err != nil {
				return err
			}
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return fmt.Errorf("record %d: %w", record, err)
		}
		if len(batch) == 0 {
			firstRecord = record
		}
		batch = append(batch, []byte(raw))
		if len(batch) >= opts.ChunkSize {
			if err := send(rawChunk{index: index, first: firstRecord, records: batch}); err != nil {
				return err
			}
			index++
			batch = nil
		}
	}
	if len(batch) > 0 {
		return send(rawChunk{index: index, first: firstRecord, records: batch})
	}
	return nil
}

// jsonlLines frames JSONL lines with a bufio.Scanner: rec is the current
// line without its '\n' or "\r\n" and line its 1-based number. A line's
// limit excludes its terminator, so a record of exactly MaxRecordBytes is
// accepted whichever way the line ends.
type jsonlLines struct {
	sc   *bufio.Scanner
	max  int
	rec  []byte
	line int
	err  error
}

func newJSONLLines(r io.Reader, max int) *jsonlLines {
	limit := max
	if limit <= math.MaxInt-2 {
		limit += 2 // room for "\r\n" in the scanner's buffer
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(1<<16, limit)), limit)
	return &jsonlLines{sc: sc, max: max}
}

// next frames the next line, reporting false at the end of the stream or
// on an error, which err then holds.
func (l *jsonlLines) next() bool {
	if !l.sc.Scan() {
		l.err = l.sc.Err()
		if errors.Is(l.err, bufio.ErrTooLong) {
			l.err = &recordTooLongError{line: l.line + 1, max: l.max}
		}
		return false
	}
	l.line++
	l.rec = l.sc.Bytes()
	if len(l.rec) > l.max {
		l.err = &recordTooLongError{line: l.line, max: l.max}
		return false
	}
	return true
}

// recordTooLongError reports a JSONL line longer than MaxRecordBytes.
type recordTooLongError struct{ line, max int }

func (e *recordTooLongError) Error() string {
	return fmt.Sprintf("line %d: record exceeds MaxRecordBytes (%d bytes)", e.line, e.max)
}

func (e *recordTooLongError) Unwrap() error { return bufio.ErrTooLong }
