package jxplain

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
)

// splitJSONLContiguous splits JSONL bytes into n contiguous, deliberately
// uneven shards (line counts roughly 1:2:…:n).
func splitJSONLContiguous(input []byte, n int) [][]byte {
	lines := strings.SplitAfter(string(input), "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	weights := 0
	for i := 1; i <= n; i++ {
		weights += i
	}
	shards := make([][]byte, 0, n)
	start := 0
	for i := 1; i <= n; i++ {
		end := start + len(lines)*i/weights
		if i == n {
			end = len(lines)
		}
		shards = append(shards, []byte(strings.Join(lines[start:end], "")))
		start = end
	}
	return shards
}

// TestDiscovererSketchShardEquivalence is the facade-level map/reduce
// check: shard a stream contiguously into 1, 2, 4 and 8 shards, fold each
// shard in its own Discoverer (a map worker), ship each sketch through
// MarshalSketch, and reduce by merging in shard order. The reduced schema
// must be byte-identical to single-stream discovery at every width —
// shard boundaries and the wire crossing leave no trace.
func TestDiscovererSketchShardEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	ctx := context.Background()
	for _, g := range dataset.Registry() {
		input := datasetJSONL(t, g, 200)

		single := NewDiscoverer(cfg)
		if _, err := single.AddStream(ctx, bytes.NewReader(input), StreamOptions{JSONL: true}); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		want, err := MarshalSchema(single.Finish())
		if err != nil {
			t.Fatal(err)
		}

		for _, shards := range []int{1, 2, 4, 8} {
			reducer := NewDiscoverer(cfg)
			records := 0
			for si, shard := range splitJSONLContiguous(input, shards) {
				mapper := NewDiscoverer(cfg)
				n, err := mapper.AddStream(ctx, bytes.NewReader(shard), StreamOptions{JSONL: true})
				if err != nil {
					t.Fatalf("%s/%d shard %d: %v", g.Name, shards, si, err)
				}
				records += n
				sketch, err := mapper.MarshalSketch()
				if err != nil {
					t.Fatalf("%s/%d shard %d: %v", g.Name, shards, si, err)
				}
				if err := reducer.MergeSketch(sketch); err != nil {
					t.Fatalf("%s/%d shard %d: %v", g.Name, shards, si, err)
				}
			}
			if records != single.Records() || reducer.Records() != single.Records() {
				t.Fatalf("%s/%d: record counts diverge: shards %d, reduced %d, single %d",
					g.Name, shards, records, reducer.Records(), single.Records())
			}
			got, err := MarshalSchema(reducer.Finish())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%d: sharded schema diverges from single-stream\ngot:  %s\nwant: %s", g.Name, shards, got, want)
			}
		}
	}
}

// TestDiscovererMergeSketchesTree checks the parallel facade reduce:
// tree-merging the shard sketches with MergeSketches must match the
// sequential MergeSketch fold byte for byte, at several worker counts.
func TestDiscovererMergeSketchesTree(t *testing.T) {
	cfg := DefaultConfig()
	ctx := context.Background()
	g, ok := dataset.ByName("github")
	if !ok {
		t.Fatal("github dataset missing")
	}
	input := datasetJSONL(t, g, 200)

	var sketches [][]byte
	for si, shard := range splitJSONLContiguous(input, 5) {
		mapper := NewDiscoverer(cfg)
		if _, err := mapper.AddStream(ctx, bytes.NewReader(shard), StreamOptions{JSONL: true}); err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		sketch, err := mapper.MarshalSketch()
		if err != nil {
			t.Fatal(err)
		}
		sketches = append(sketches, sketch)
	}

	seq := NewDiscoverer(cfg)
	for _, sketch := range sketches {
		if err := seq.MergeSketch(sketch); err != nil {
			t.Fatal(err)
		}
	}
	want, err := MarshalSchema(seq.Finish())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3} {
		tree := NewDiscoverer(cfg)
		if err := tree.MergeSketches(sketches, workers); err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		if tree.Records() != seq.Records() {
			t.Fatalf("w%d: record counts diverge: %d vs %d", workers, tree.Records(), seq.Records())
		}
		got, err := MarshalSchema(tree.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("w%d: tree-reduced schema diverges from sequential\ngot:  %s\nwant: %s", workers, got, want)
		}
	}

	// A corrupt file surfaces the typed error and its index.
	bad := append([][]byte(nil), sketches...)
	bad[2] = bad[2][:7]
	err = NewDiscoverer(cfg).MergeSketches(bad, 2)
	var merr *core.SketchMergeError
	if !errors.As(err, &merr) || merr.Index != 2 {
		t.Errorf("corrupt shard: got %v, want *core.SketchMergeError with Index 2", err)
	}
}

// TestDiscovererFromSketchResumes checks the save/resume workflow: marshal
// mid-stream, resume in a fresh Discoverer, keep adding, and match an
// uninterrupted run.
func TestDiscovererFromSketchResumes(t *testing.T) {
	cfg := DefaultConfig()
	ctx := context.Background()
	g, _ := dataset.ByName("nyt")
	input := datasetJSONL(t, g, 150)
	shards := splitJSONLContiguous(input, 2)

	d := NewDiscoverer(cfg)
	if _, err := d.AddStream(ctx, bytes.NewReader(shards[0]), StreamOptions{JSONL: true}); err != nil {
		t.Fatal(err)
	}
	saved, err := d.MarshalSketch()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewDiscovererFromSketch(saved, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.AddStream(ctx, bytes.NewReader(shards[1]), StreamOptions{JSONL: true}); err != nil {
		t.Fatal(err)
	}

	full := NewDiscoverer(cfg)
	if _, err := full.AddStream(ctx, bytes.NewReader(input), StreamOptions{JSONL: true}); err != nil {
		t.Fatal(err)
	}
	got, err := MarshalSchema(resumed.Finish())
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalSchema(full.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed schema diverges from uninterrupted run\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDiscovererSketchErrors pins the typed errors crossing the facade.
func TestDiscovererSketchErrors(t *testing.T) {
	if _, err := NewDiscovererFromSketch([]byte("not a sketch"), DefaultConfig()); err == nil {
		t.Error("garbage accepted")
	} else {
		var ferr *core.SketchFormatError
		if !errors.As(err, &ferr) {
			t.Errorf("got %T, want *core.SketchFormatError", err)
		}
	}
	d := NewDiscoverer(DefaultConfig())
	data, err := d.MarshalSketch()
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 99
	var verr *core.SketchVersionError
	if err := d.MergeSketch(data); !errors.As(err, &verr) {
		t.Errorf("got %v, want *core.SketchVersionError", err)
	}
}
