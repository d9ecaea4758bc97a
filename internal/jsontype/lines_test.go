package jsontype

import (
	"fmt"
	"strings"
	"testing"
)

func TestDecodeLinesBasic(t *testing.T) {
	input := "{\"a\":1}\n\n  \n{\"a\":2,\"b\":\"x\"}\n[1,2]\n"
	types, err := DecodeLines(strings.NewReader(input), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 3 {
		t.Fatalf("got %d types", len(types))
	}
	if !Equal(types[0], obj("a", Number)) ||
		!Equal(types[1], obj("a", Number, "b", String)) ||
		!Equal(types[2], arr(Number, Number)) {
		t.Errorf("types = %v", types)
	}
}

func TestDecodeLinesReportsLineNumber(t *testing.T) {
	// Whitespace JSON does not allow is content, not a blank line.
	for _, bad := range []string{"{broken", "\v", "\f", "\u0085", "\u00a0"} {
		input := "{\"a\":1}\n" + bad + "\n{\"a\":2}\n"
		_, err := DecodeLines(strings.NewReader(input), 4)
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%q: err = %v, want line 2", input, err)
		}
	}
}

func TestDecodeLinesMatchesDecodeAll(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, `{"id":%d,"tags":["a","b"],"geo":[1.5,2.5]}`+"\n", i)
	}
	viaLines, err := DecodeLines(strings.NewReader(b.String()), 8)
	if err != nil {
		t.Fatal(err)
	}
	viaStream, err := DecodeAll(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(viaLines) != len(viaStream) {
		t.Fatalf("lengths differ: %d vs %d", len(viaLines), len(viaStream))
	}
	for i := range viaLines {
		if !Equal(viaLines[i], viaStream[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestDecodeLinesEmpty(t *testing.T) {
	types, err := DecodeLines(strings.NewReader(""), 3)
	if err != nil || len(types) != 0 {
		t.Errorf("empty input: %v %v", types, err)
	}
}

func TestDecodeLinesTrailingContentOnLine(t *testing.T) {
	// Two documents on one line violate JSONL.
	if _, err := DecodeLines(strings.NewReader(`{"a":1} {"b":2}`), 1); err == nil {
		t.Error("two documents per line should fail")
	}
}
