package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/ingest"
	"jxplain/internal/schema"
)

// TestMain lets the test binary stand in for the jxshard executable: the
// run driver spawns os.Executable() for its map phase, which under `go
// test` is this binary. Worker invocations carry JXSHARD_WORKER_PROCESS
// in the environment and are dispatched straight into run().
// JXSHARD_TEST_BARRIER additionally holds each worker at a barrier
// (see workerBarrier).
func TestMain(m *testing.M) {
	if os.Getenv("JXSHARD_WORKER_PROCESS") != "" {
		var stdin io.Reader = os.Stdin
		if spec := os.Getenv("JXSHARD_TEST_BARRIER"); spec != "" {
			stdin = workerBarrier(spec, os.Args[1:])
		}
		if err := run(os.Args[1:], stdin, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "jxshard:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerBarrier holds a map worker, once it has read the first byte of
// its shard, until the workers of all n shards have read theirs. spec is
// "n:dir"; each worker marks its arrival with a file in dir named after
// its -o sketch path. A worker still alone at the barrier after the
// timeout fails, so a driver that lets shard i+1 read only after shard i
// is done fails the run. It returns the worker's whole stdin.
func workerBarrier(spec string, args []string) io.Reader {
	count, dir, _ := strings.Cut(spec, ":")
	n, err := strconv.Atoi(count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrier: bad spec", spec)
		os.Exit(2)
	}
	name := "worker"
	for i, a := range args {
		if a == "-o" && i+1 < len(args) {
			name = filepath.Base(args[i+1])
		}
	}
	first := make([]byte, 1)
	k, _ := io.ReadFull(os.Stdin, first) // an empty shard arrives at EOF
	if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "barrier:", err)
		os.Exit(2)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		entries, _ := os.ReadDir(dir)
		if len(entries) >= n {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "barrier: %s timed out with %d of %d shards reading\n", name, len(entries), n)
			os.Exit(1)
		}
	}
	return io.MultiReader(bytes.NewReader(first[:k]), os.Stdin)
}

// datasetJSONL renders a generator's records as JSONL, matching the
// record set behind testdata/golden (300 records, seed 1).
func datasetJSONL(t *testing.T, g *dataset.Generator, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range g.Generate(n, 1) {
		data, err := json.Marshal(rec.Value)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func goldenSchema(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShardRunByteIdentical is the acceptance check for the scale-out
// driver: `jxshard run` over four real map worker processes must produce
// the golden single-process schema, byte for byte, on every dataset.
func TestShardRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes per dataset")
	}
	for _, g := range dataset.Registry() {
		input := filepath.Join(t.TempDir(), "input.jsonl")
		if err := os.WriteFile(input, datasetJSONL(t, g, 300), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{"run", "-shards", "4", "-jsonl", "-format", "native", input},
			nil, &out, os.Stderr)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if want := goldenSchema(t, g.Name); !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: 4-shard schema diverges from golden\ngot:  %s\nwant: %s",
				g.Name, out.Bytes(), want)
		}
	}
}

// TestShardMapReduceGoldenUnevenShards drives the map and reduce phases
// separately: each dataset is cut into three deliberately uneven
// contiguous shards (≈1:2:3), each folded by its own map worker process,
// and the reduced schema must still match the golden byte for byte —
// shard boundaries carry no signal.
func TestShardMapReduceGoldenUnevenShards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes per dataset")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range dataset.Registry() {
		dir := t.TempDir()
		lines := bytes.SplitAfter(datasetJSONL(t, g, 300), []byte("\n"))
		if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		// Cut points at 1/6 and 3/6: shard sizes 50, 100, 150 of 300.
		cuts := []int{len(lines) / 6, len(lines) / 2, len(lines)}
		start := 0
		var sketches []string
		for i, end := range cuts {
			shardPath := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
			sketchPath := filepath.Join(dir, fmt.Sprintf("shard%d.jxsk", i))
			if err := os.WriteFile(shardPath, bytes.Join(lines[start:end], nil), 0o644); err != nil {
				t.Fatal(err)
			}
			start = end
			cmd := exec.Command(exe, "map", "-jsonl", "-o", sketchPath, shardPath)
			cmd.Env = append(os.Environ(), "JXSHARD_WORKER_PROCESS=1")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: map worker %d: %v\n%s", g.Name, i, err, out)
			}
			sketches = append(sketches, sketchPath)
		}
		var out bytes.Buffer
		args := append([]string{"reduce", "-format", "native"}, sketches...)
		if err := run(args, nil, &out, os.Stderr); err != nil {
			t.Fatalf("%s: reduce: %v", g.Name, err)
		}
		if want := goldenSchema(t, g.Name); !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: uneven-shard schema diverges from golden\ngot:  %s\nwant: %s",
				g.Name, out.Bytes(), want)
		}
	}
}

// TestShardRunConcatenatedJSON exercises the non-JSONL framing path and
// empty-shard tolerance: more shards than distinct record boundaries in
// one shard's slice is fine.
func TestShardRunConcatenatedJSON(t *testing.T) {
	g, ok := dataset.ByName("github")
	if !ok {
		t.Fatal("github dataset missing")
	}
	var concat bytes.Buffer
	for _, rec := range g.Generate(40, 1) {
		data, err := json.Marshal(rec.Value)
		if err != nil {
			t.Fatal(err)
		}
		concat.Write(data)
	}
	input := filepath.Join(t.TempDir(), "input.json")
	if err := os.WriteFile(input, concat.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	if err := run([]string{"run", "-shards", "1", "-format", "native", input}, nil, &want, os.Stderr); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"run", "-shards", "8", "-format", "native", input}, nil, &got, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("8-shard concatenated-JSON schema diverges from 1-shard\ngot:  %s\nwant: %s",
			got.Bytes(), want.Bytes())
	}
}

// TestShardRunStrayCloserFails pins that a stray top-level ']' or '}' in
// concatenated JSON fails the run, whether the driver's cut pass (two
// shards) or a map worker's framing (one shard) meets it, instead of
// reducing only the records before it.
func TestShardRunStrayCloserFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, input := range []string{`{"a":1} ] {"b":"x"}`, `{"a":1} } {"b":"x"}`} {
		if _, err := cutShards(strings.NewReader(input), int64(len(input)), 2, false); err == nil ||
			!strings.HasPrefix(err.Error(), "record 2:") {
			t.Errorf("cutShards(%q): err = %v, want record 2: …", input, err)
		}
		path := filepath.Join(t.TempDir(), "input.json")
		if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []string{"1", "2"} {
			var out bytes.Buffer
			err := run([]string{"run", "-shards", shards, "-format", "native", path}, nil, &out, io.Discard)
			if err == nil || out.Len() != 0 {
				t.Errorf("%q over %s shards: err = %v, output %q; want an error and no schema",
					input, shards, err, out.String())
			}
		}
	}
}

// TestShardRunStdinSpool drives run with a non-seekable stdin, covering
// the spool path that sizes the byte quotas, and requires the same golden
// schema as the file-backed run.
func TestShardRunStdinSpool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g, ok := dataset.ByName("twitter")
	if !ok {
		t.Fatal("twitter dataset missing")
	}
	var out bytes.Buffer
	err := run([]string{"run", "-shards", "3", "-jsonl", "-format", "native"},
		bytes.NewReader(datasetJSONL(t, g, 300)), &out, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenSchema(t, g.Name); !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdin-fed schema diverges from golden\ngot:  %s\nwant: %s", out.Bytes(), want)
	}
}

// TestShardRunSpoolCleanup injects a failing map worker — malformed
// JSONL arriving over non-seekable stdin, so the input takes the spool
// path — and asserts the run leaves nothing behind in TMPDIR: the spool
// file and the shard scratch directory must be released on the error
// path, not only on success.
func TestShardRunSpoolCleanup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	bad := "{\"ok\":1}\nthis is not json\n{\"ok\":2}\n"
	var out bytes.Buffer
	err := run([]string{"run", "-shards", "2", "-jsonl", "-format", "native"},
		strings.NewReader(bad), &out, io.Discard)
	if err == nil {
		t.Fatal("run succeeded on malformed JSONL; the test needs a failing worker")
	}
	entries, readErr := os.ReadDir(tmp)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range entries {
		t.Errorf("leftover %s in TMPDIR after failed run", e.Name())
	}
}

// TestShardRunReduceWorkers pins that the parallel tree reduce leaves the
// output byte-identical to the sequential fold from the CLI surface too.
// The reduce is one merge worker per core wide, so GOMAXPROCS=1 is the
// sequential fold and GOMAXPROCS=4 a four-worker tree.
func TestShardRunReduceWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g, _ := dataset.ByName("github")
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := os.WriteFile(input, datasetJSONL(t, g, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var seq, par bytes.Buffer
	for _, c := range []struct {
		procs int
		out   *bytes.Buffer
	}{{1, &seq}, {4, &par}} {
		runtime.GOMAXPROCS(c.procs)
		if err := run([]string{"run", "-shards", "8", "-jsonl", "-format", "native", input},
			nil, c.out, os.Stderr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(par.Bytes(), seq.Bytes()) {
		t.Errorf("4-worker tree reduce diverges from sequential reduce\ngot:  %s\nwant: %s",
			par.Bytes(), seq.Bytes())
	}
}

// TestShardRunStreamsInput is the io.ReadAll regression guard: the driver
// must hold O(record) memory, not O(corpus). It feeds a ~16 MiB file
// through run and asserts the driver process allocates well under the
// input size in total — the old slurping driver allocated at least 2×
// (one io.ReadAll copy plus the per-record slices), so the bound fails
// loudly if whole-corpus buffering ever returns.
func TestShardRunStreamsInput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	input := filepath.Join(t.TempDir(), "big.jsonl")
	f, err := os.Create(input)
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"id":1,"name":"` + string(bytes.Repeat([]byte{'x'}, 200)) + `","tags":["a","b"]}` + "\n")
	const targetBytes = 16 << 20
	var size int64
	for size < targetBytes {
		n, err := f.Write(line)
		if err != nil {
			t.Fatal(err)
		}
		size += int64(n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var out bytes.Buffer
	if err := run([]string{"run", "-shards", "4", "-jsonl", "-format", "native", input},
		nil, &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("driver allocated %d bytes for a %d-byte input", allocated, size)
	if limit := uint64(size) / 4; allocated > limit {
		t.Errorf("driver allocated %d bytes for a %d-byte input (limit %d); run is buffering the corpus again",
			allocated, size, limit)
	}
	if out.Len() == 0 {
		t.Error("no schema produced")
	}
}

// TestShardCLIErrors pins the user-facing failure modes.
func TestShardCLIErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"map"},    // missing -o
		{"reduce"}, // no sketch files
		{"reduce", "-algorithm", "k-reduce", "x.jxsk"}, // unsupported extractor
		{"run", "-shards", "0"},
	}
	for _, args := range cases {
		if err := run(args, bytes.NewReader(nil), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}

	// A reduce over garbage sketch bytes must surface the typed decode
	// error, not a panic.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jxsk")
	if err := os.WriteFile(bad, []byte("not a sketch"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"reduce", bad}, nil, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("reduce accepted garbage sketch file")
	}
}

// TestShardRunMapsConcurrently pins that run lets every map worker read
// its shard at once. Each worker waits, after its first byte, until all
// workers have read one (workerBarrier). The shards are far larger than
// a pipe buffer, so a driver that fed shard 1 only after shard 0 had
// drained would leave shard 0 alone at the barrier until it timed out.
func TestShardRunMapsConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	input := filepath.Join(t.TempDir(), "input.jsonl")
	line := `{"id":1,"name":"` + strings.Repeat("x", 200) + `","tags":["a"]}` + "\n"
	if err := os.WriteFile(input, []byte(strings.Repeat(line, 8192)), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("JXSHARD_TEST_BARRIER", "2:"+t.TempDir())
	var out bytes.Buffer
	if err := run([]string{"run", "-shards", "2", "-jsonl", "-format", "native", input},
		nil, &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("no schema produced")
	}
}

// singleProcessSchema is the native schema one process discovers from
// input, the reference every sharded run must reproduce byte for byte.
func singleProcessSchema(t *testing.T, input []byte, jsonl bool) []byte {
	t.Helper()
	acc := core.NewAccumulator(core.Default())
	if _, err := ingest.Fold(context.Background(), bytes.NewReader(input), ingest.Options{JSONL: jsonl}, acc); err != nil {
		t.Fatal(err)
	}
	return nativeSchema(t, acc)
}

// mapReduceSections is `jxshard run` without the processes: each section
// [cuts[i], cuts[i+1]) of input is folded and marshalled as its map worker
// would, and the sketches are reduced in order. An input without records
// yields nil.
func mapReduceSections(t *testing.T, input []byte, cuts []int64, jsonl bool) []byte {
	t.Helper()
	datas := make([][]byte, len(cuts)-1)
	for i := range datas {
		acc := core.NewAccumulator(core.Default())
		section := bytes.NewReader(input[cuts[i]:cuts[i+1]])
		if _, err := ingest.Fold(context.Background(), section, ingest.Options{JSONL: jsonl}, acc); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		var err error
		if datas[i], err = acc.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := reduceSketches(datas, core.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Records() == 0 {
		return nil
	}
	return nativeSchema(t, acc)
}

// nativeSchema renders an accumulator's schema as `-format native` does.
func nativeSchema(t *testing.T, acc *core.Accumulator) []byte {
	t.Helper()
	data, err := schema.Marshal(schema.Simplify(acc.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// valueEnds returns the offsets at which a concatenated-JSON stream's
// values end, as the decoder the map workers use frames them.
func valueEnds(t *testing.T, input []byte) []int64 {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(input))
	var ends []int64
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, dec.InputOffset())
	}
	return ends
}

// randomRecord renders one small JSON object whose strings hold the bytes
// record framing must not be fooled by: escaped newlines, quotes, braces.
func randomRecord(rng *rand.Rand) string {
	strs := []string{`"plain"`, `"two\nlines"`, `"quote \" and }{"`, `"crlf\r\n"`, `"[1, 2]"`}
	var b strings.Builder
	b.WriteString(`{"id":` + strconv.Itoa(rng.Intn(1000)))
	for i := rng.Intn(4); i > 0; i-- {
		key := fmt.Sprintf("k%d", rng.Intn(6))
		if strings.Contains(b.String(), `"`+key+`"`) {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			b.WriteString(`,"` + key + `":` + strs[rng.Intn(len(strs))])
		case 1:
			b.WriteString(`,"` + key + `":[` + strs[rng.Intn(len(strs))] + `,2]`)
		default:
			b.WriteString(`,"` + key + `":{"n":` + strs[rng.Intn(len(strs))] + `}`)
		}
	}
	b.WriteString("}")
	return b.String()
}

// cutCases returns the inputs the cut property runs over, for one
// framing: fixed edge cases plus seeded random streams.
func cutCases(jsonl bool) map[string][]byte {
	long := `{"long":"` + strings.Repeat("y", 5000) + `"}`
	cases := map[string][]byte{"empty": nil}
	if jsonl {
		cases["blank lines"] = []byte("\n  \n{\"a\":1}\n\t\n\n{\"b\":\"x\"}\n \n")
		cases["crlf"] = []byte("{\"a\":1}\r\n{\"b\":2}\r\n\r\n{\"c\":[1]}\r\n")
		cases["no final newline"] = []byte("{\"a\":1}\n{\"b\":2}\n{\"c\":3}")
		cases["record over quota"] = []byte("{\"a\":1}\n" + long + "\n{\"b\":2}\n{\"c\":3}\n")
		cases["one record"] = []byte("{\"a\":1}\n")
	} else {
		cases["mixed whitespace"] = []byte(" {\"a\":1}\n\t{\"b\":2}\r\n\n[1,2]{\"c\":3}  \"s\" 4 5\t")
		cases["escaped newlines"] = []byte(`{"a":"x\ny"}{"b":"}{\n\""}` + "\n" + `["\n"]`)
		cases["record over quota"] = []byte(`{"a":1} ` + long + ` {"b":2}{"c":3}`)
		cases["one record"] = []byte(`{"a":1}`)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for i := rng.Intn(40) + 1; i > 0; i-- {
			b.WriteString(randomRecord(rng))
			if jsonl {
				b.WriteString([]string{"\n", "\r\n", "\n\n", "\n \t\n"}[rng.Intn(4)])
			} else {
				b.WriteString([]string{"", " ", "\n", "\t\r\n", "\n\n"}[rng.Intn(5)])
			}
		}
		data := b.String()
		if jsonl && rng.Intn(2) == 0 {
			data = strings.TrimRight(data, "\r\n \t")
		}
		cases[fmt.Sprintf("random %d", seed)] = []byte(data)
	}
	return cases
}

// TestCutShardsProperty checks the cut finder on both framings over
// inputs built to stress record boundaries. At every shard count from 1
// to 9 the cuts must run in order from 0 to the input's size, so the
// sections concatenate to the input exactly, and every cut must lie on a
// record boundary: a line start for JSONL, a value end of the workers'
// decoder for concatenated JSON. The shards, folded and reduced in order,
// must reproduce the single-process schema at every count, and so must a
// 3-shard `run` through real worker processes on each fixed case.
func TestCutShardsProperty(t *testing.T) {
	for _, jsonl := range []bool{true, false} {
		for name, input := range cutCases(jsonl) {
			name := fmt.Sprintf("%s (jsonl=%v)", name, jsonl)
			size := int64(len(input))
			boundary := map[int64]bool{0: true, size: true}
			if jsonl {
				for i, c := range input {
					if c == '\n' {
						boundary[int64(i)+1] = true
					}
				}
			} else {
				for _, end := range valueEnds(t, input) {
					boundary[end] = true
				}
			}
			discoverable := len(bytes.TrimSpace(input)) > 0
			var want []byte
			if discoverable {
				want = singleProcessSchema(t, input, jsonl)
			}
			for n := 1; n <= 9; n++ {
				cuts, err := cutShards(bytes.NewReader(input), size, n, jsonl)
				if err != nil {
					t.Fatalf("%s, %d shards: %v", name, n, err)
				}
				if len(cuts) != n+1 || cuts[0] != 0 || cuts[n] != size {
					t.Fatalf("%s, %d shards: cuts %v do not span [0, %d]", name, n, cuts, size)
				}
				var joined []byte
				for i := 0; i < n; i++ {
					if cuts[i] > cuts[i+1] {
						t.Fatalf("%s, %d shards: cuts %v out of order", name, n, cuts)
					}
					joined = append(joined, input[cuts[i]:cuts[i+1]]...)
					if !boundary[cuts[i]] {
						t.Errorf("%s, %d shards: cut %d at %d is not a record boundary", name, n, i, cuts[i])
					}
				}
				if !bytes.Equal(joined, input) {
					t.Fatalf("%s, %d shards: sections do not concatenate to the input", name, n)
				}
				if got := mapReduceSections(t, input, cuts, jsonl); discoverable && !bytes.Equal(got, want) {
					t.Errorf("%s, %d shards: schema diverges from single process\ngot:  %s\nwant: %s",
						name, n, got, want)
				}
			}
			if testing.Short() || !discoverable || strings.HasPrefix(name, "random") {
				continue
			}
			// The same through real worker processes, once per fixed case.
			path := filepath.Join(t.TempDir(), "input")
			if err := os.WriteFile(path, input, 0o644); err != nil {
				t.Fatal(err)
			}
			args := []string{"run", "-shards", "3", "-format", "native"}
			if jsonl {
				args = append(args, "-jsonl")
			}
			var out bytes.Buffer
			if err := run(append(args, path), nil, &out, os.Stderr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s, run: schema diverges from single process\ngot:  %s\nwant: %s",
					name, out.Bytes(), want)
			}
		}
	}
}

// lockedBuffer is a bytes.Buffer that concurrent map workers' stderr
// copies can share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestShardRunErrorNamesShard puts a malformed line in the last of three
// shards. The worker numbers lines from its own shard's start, so the
// driver's error must name the shard and its byte range, and the line
// the worker reports must be the bad line's position within that shard.
func TestShardRunErrorNamesShard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	var lines []string
	for i := 1; i <= 30; i++ {
		lines = append(lines, fmt.Sprintf(`{"id":%d,"name":"n%02d"}`, i, i))
	}
	lines[27] = "this is not json"
	input := []byte(strings.Join(lines, "\n") + "\n")
	bad := bytes.Index(input, []byte(lines[27]))
	path := filepath.Join(t.TempDir(), "input.jsonl")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	cuts, err := cutShards(bytes.NewReader(input), int64(len(input)), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if int64(bad) < cuts[2] {
		t.Fatalf("bad line at %d is not in the last shard (cuts %v)", bad, cuts)
	}

	var stderr lockedBuffer
	err = run([]string{"run", "-shards", "3", "-jsonl", "-format", "native", path}, nil, &bytes.Buffer{}, &stderr)
	if err == nil {
		t.Fatal("run accepted a malformed line")
	}
	if want := fmt.Sprintf("map shard 2 of 3, input bytes %d-%d", cuts[2], cuts[3]); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing shard (want %q)", err, want)
	}
	line := bytes.Count(input[cuts[2]:bad], []byte{'\n'}) + 1
	if want := fmt.Sprintf("line %d:", line); !strings.Contains(stderr.String(), want) {
		t.Errorf("worker stderr %q does not report the shard-relative %q", stderr.String(), want)
	}
}
