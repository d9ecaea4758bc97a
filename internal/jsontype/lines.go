package jsontype

import (
	"bufio"
	"fmt"
	"io"

	"jxplain/internal/dist"
)

// DecodeLines derives structural types from newline-delimited JSON
// (JSONL): one document per non-blank line, decoded in parallel across the
// given worker count (<= 0 uses all cores). Type extraction is the
// scan-heavy first step of discovery, and JSONL's framing makes it
// embarrassingly parallel — unlike the general concatenated-JSON stream
// DecodeAll accepts.
//
// Errors carry the 1-based line number of the offending document.
func DecodeLines(r io.Reader, workers int) ([]*Type, error) {
	type line struct {
		number int
		data   []byte
	}
	var lines []line
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<26)
	n := 0
	for scanner.Scan() {
		n++
		data := scanner.Bytes()
		if Blank(data) {
			continue
		}
		lines = append(lines, line{number: n, data: append([]byte(nil), data...)})
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}

	type result struct {
		t   *Type
		err error
	}
	results := dist.Map(lines, workers, func(l line) result {
		t, err := FromJSON(l.data)
		if err != nil {
			return result{err: fmt.Errorf("line %d: %w", l.number, err)}
		}
		return result{t: t}
	})
	out := make([]*Type, len(results))
	for i, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		out[i] = res.t
	}
	return out, nil
}

// Blank reports whether a JSONL line holds only JSON whitespace (space,
// tab, CR, LF): the lines JSONL framing skips. Any other byte, Unicode
// space included, makes the line a record, which then fails to decode.
func Blank(line []byte) bool {
	for _, c := range line {
		switch c {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}
