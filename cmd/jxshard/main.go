// Command jxshard runs schema discovery as a scale-out map/reduce over
// the versioned sketch wire format.
//
//	jxshard map    [-jsonl] [-workers N] [-chunk N] -o out.jxsk [file]
//	jxshard reduce [algorithm flags] [-reduce-workers N] [-format F] sketch...
//	jxshard run    [-shards N] [-jsonl] [-reduce-workers N] [algorithm flags] [-format F] [file]
//
// The map phase folds one shard of the input into an accumulator and
// writes its serialized sketch — no algorithm configuration needed, since
// a sketch carries data statistics only. The reduce phase merges sketch
// files *in argument order* — as a parallel tree when -reduce-workers
// allows — and runs passes ②/③ once under the supplied configuration. run
// is the single-machine driver: it cuts the input into contiguous byte
// ranges, starts one `jxshard map` worker process per range, all at once,
// and tree-reduces their sketches.
//
// Shards are contiguous ranges, not round-robin deals: concatenating the
// shards reproduces the input stream, so reducing in shard order rebuilds
// the exact first-seen type order a single process would have observed and
// the discovered schema is byte-identical to a non-sharded run. The driver
// never materializes the corpus: it finds each cut by reading forward from
// a byte quota to the next record boundary (JSONL) or by one framing pass
// (concatenated JSON), then hands every worker its own section of the
// file as stdin, so the driver's memory is O(record), not O(corpus), and
// the map workers run concurrently.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"jxplain/internal/core"
	"jxplain/internal/ingest"
	"jxplain/internal/schema"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "jxshard:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: jxshard map|reduce|run [flags]")
	}
	switch args[0] {
	case "map":
		return runMap(args[1:], stdin)
	case "reduce":
		return runReduce(args[1:], stdout)
	case "run":
		return runRun(args[1:], stdin, stdout, stderr)
	}
	return fmt.Errorf("unknown subcommand %q (want map, reduce, or run)", args[0])
}

// algoFlags registers the algorithm-selection flags shared by reduce and
// run, returning a closure that builds the Config.
func algoFlags(fs *flag.FlagSet) func() (core.Config, error) {
	algorithm := fs.String("algorithm", "jxplain", "extractor: jxplain or bimax-naive")
	threshold := fs.Float64("threshold", 1.0,
		"key-space entropy threshold for collection detection (natural log)")
	noArrayTuples := fs.Bool("no-array-tuples", false,
		"treat every array as a collection (disable §5.4 detection)")
	noObjectColls := fs.Bool("no-object-collections", false,
		"treat every object as a tuple (disable §5.1 detection)")
	seed := fs.Int64("seed", 1, "seed for sampling and k-means")
	return func() (core.Config, error) {
		cfg := core.Default()
		cfg.Detection.Threshold = *threshold
		cfg.DetectArrayTuples = !*noArrayTuples
		cfg.DetectObjectCollections = !*noObjectColls
		cfg.Seed = *seed
		switch *algorithm {
		case "jxplain":
		case "bimax-naive":
			cfg.Partition = core.BimaxNaive
		default:
			return cfg, fmt.Errorf("unknown algorithm %q (the staged reducer supports jxplain and bimax-naive)", *algorithm)
		}
		return cfg, nil
	}
}

func openInput(fs *flag.FlagSet, stdin io.Reader) (io.Reader, func() error, error) {
	if fs.NArg() == 0 {
		return stdin, func() error { return nil }, nil
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// runMap folds one shard into an accumulator and writes its sketch. An
// empty shard is legal (uneven splits may starve a worker) and yields an
// empty sketch that merges as a no-op.
func runMap(args []string, stdin io.Reader) error {
	fs := flag.NewFlagSet("jxshard map", flag.ContinueOnError)
	out := fs.String("o", "", "output sketch file (required; - for stdout)")
	jsonl := fs.Bool("jsonl", false, "treat input as strict JSONL")
	workers := fs.Int("workers", 0, "decode workers (0 = one per core)")
	chunk := fs.Int("chunk", 0, "records per ingestion chunk (0 = default 2048)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("map: -o is required")
	}
	input, closeIn, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer closeIn()

	acc := core.NewAccumulator(core.Default())
	opts := ingest.Options{ChunkSize: *chunk, Workers: *workers, JSONL: *jsonl}
	if _, err := ingest.Fold(context.Background(), input, opts, acc); err != nil {
		return fmt.Errorf("map: decoding records: %w", err)
	}
	data, err := acc.Marshal()
	if err != nil {
		return fmt.Errorf("map: %w", err)
	}
	if *out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// runReduce merges sketch files in argument order — as a parallel tree
// when -reduce-workers allows — and synthesizes the schema once.
func runReduce(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jxshard reduce", flag.ContinueOnError)
	cfgOf := algoFlags(fs)
	format := fs.String("format", "pretty",
		"output: pretty (paper notation), jsonschema, or native")
	reduceWorkers := fs.Int("reduce-workers", 0,
		"concurrent sketch-merge workers (0 = one per core, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cfgOf()
	if err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("reduce: no sketch files given")
	}
	datas := make([][]byte, fs.NArg())
	for i, path := range fs.Args() {
		if datas[i], err = os.ReadFile(path); err != nil {
			return err
		}
	}
	acc, err := reduceSketches(datas, cfg, *reduceWorkers, fs.Args())
	if err != nil {
		return err
	}
	if acc.Records() == 0 {
		return fmt.Errorf("reduce: no records in any sketch")
	}
	return printSchema(stdout, schema.Simplify(acc.Finish()), *format)
}

// reduceSketches tree-merges the sketches (byte-identical to a sequential
// fold at every worker count) and translates a failing file's index back
// into its name for the error message.
func reduceSketches(datas [][]byte, cfg core.Config, workers int, names []string) (*core.Accumulator, error) {
	acc, err := core.ReduceSketches(datas, cfg, workers)
	if err != nil {
		var merr *core.SketchMergeError
		if errors.As(err, &merr) && merr.Index < len(names) {
			return nil, fmt.Errorf("reduce: %s: %w", names[merr.Index], merr.Err)
		}
		return nil, fmt.Errorf("reduce: %w", err)
	}
	return acc, nil
}

// runRun is the single-machine scale-out driver: contiguous byte-range
// split, one map worker process per shard, all running at once, and a
// tree reduce in shard order.
//
// The input is never read into memory. The driver needs a seekable file
// (a regular file as given; anything else is spooled to a temp file
// first, through a bounded copy buffer). It cuts the file into n
// contiguous byte ranges at record boundaries (cutShards) and starts
// every map worker at once, each reading only its own range through its
// stdin, so all shards decode concurrently.
func runRun(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("jxshard run", flag.ContinueOnError)
	cfgOf := algoFlags(fs)
	shards := fs.Int("shards", 4, "number of map worker processes")
	jsonl := fs.Bool("jsonl", false, "treat input as strict JSONL")
	format := fs.String("format", "pretty",
		"output: pretty (paper notation), jsonschema, or native")
	workers := fs.Int("workers", 0, "decode workers per map process (0 = one per core)")
	chunk := fs.Int("chunk", 0, "records per ingestion chunk (0 = default 2048)")
	reduceWorkers := fs.Int("reduce-workers", 0,
		"concurrent sketch-merge workers (0 = one per core, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cfgOf()
	if err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("run: -shards must be at least 1")
	}
	input, closeIn, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer closeIn()

	tmp, err := os.MkdirTemp("", "jxshard")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	f, size, cleanInput, err := sizedInput(input, tmp)
	if err != nil {
		return err
	}
	defer cleanInput()
	cuts, err := cutShards(f, size, *shards, *jsonl)
	if err != nil {
		return err
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var mapArgs []string
	if *jsonl {
		mapArgs = append(mapArgs, "-jsonl")
	}
	if *workers > 0 {
		mapArgs = append(mapArgs, "-workers", fmt.Sprint(*workers))
	}
	if *chunk > 0 {
		mapArgs = append(mapArgs, "-chunk", fmt.Sprint(*chunk))
	}
	sketches, err := mapShards(f, cuts, tmp, exe, mapArgs, stderr)
	if err != nil {
		return err
	}

	datas := make([][]byte, len(sketches))
	for i, path := range sketches {
		if datas[i], err = os.ReadFile(path); err != nil {
			return err
		}
	}
	acc, err := reduceSketches(datas, cfg, *reduceWorkers, nil)
	if err != nil {
		return err
	}
	if acc.Records() == 0 {
		return fmt.Errorf("no records in input")
	}
	return printSchema(stdout, schema.Simplify(acc.Finish()), *format)
}

// sizedInput returns the input as a seekable file plus its byte size, and
// a cleanup releasing whatever the sizing allocated. A regular file
// answers with a Stat and needs no cleanup (the caller owns the handle);
// any other reader (a pipe, a terminal) is spooled into dir through
// io.Copy's bounded buffer — still O(buffer) memory — and replaced by the
// spool file, which the cleanup closes and removes. Error paths inside
// release the spool themselves, so a failed spool never outlives the
// call.
func sizedInput(input io.Reader, dir string) (*os.File, int64, func(), error) {
	if f, ok := input.(*os.File); ok {
		if info, err := f.Stat(); err == nil && info.Mode().IsRegular() {
			return f, info.Size(), func() {}, nil
		}
	}
	path := filepath.Join(dir, "input.spool")
	spool, err := os.Create(path)
	if err != nil {
		return nil, 0, nil, err
	}
	cleanup := func() {
		spool.Close()
		os.Remove(path)
	}
	size, err := io.Copy(spool, input)
	if err != nil {
		cleanup()
		return nil, 0, nil, fmt.Errorf("spooling input: %w", err)
	}
	return spool, size, cleanup, nil
}

// cutShards cuts the input's size bytes into n contiguous ranges at
// record boundaries: shard i is [cuts[i], cuts[i+1]), cuts[0] = 0 and
// cuts[n] = size. Cut i is the first record boundary at or past the
// quota size·i/n, so a record longer than a quota leaves the shards it
// spans empty. Only the cuts are found here; the map workers still frame
// and validate every record of their ranges.
func cutShards(r io.ReaderAt, size int64, n int, jsonl bool) ([]int64, error) {
	cuts := make([]int64, n+1)
	cuts[n] = size
	quota := func(i int) int64 { return size * int64(i) / int64(n) }
	if jsonl {
		// A JSONL record boundary is a line start, so each cut reads
		// forward from its quota to the next '\n': O(record) bytes per
		// cut, independent of the shard size.
		buf := make([]byte, 4096)
		for i := 1; i < n; i++ {
			cut, err := lineStart(r, max(quota(i), cuts[i-1]), size, buf)
			if err != nil {
				return nil, err
			}
			cuts[i] = cut
		}
		return cuts, nil
	}
	// Concatenated JSON has no local boundary marker (a '}' may sit
	// inside a string), so one framing pass with the decoder the map
	// workers use records where each value ends, up to the last quota.
	dec := json.NewDecoder(io.NewSectionReader(r, 0, size))
	var raw json.RawMessage // reused: the pass holds O(record) bytes
	i := 1
	for i < n && quota(i) == 0 {
		i++ // the input's start is a boundary
	}
	for record := 1; i < n && dec.More(); record++ {
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("record %d: %w", record, err)
		}
		for end := dec.InputOffset(); i < n && end >= quota(i); i++ {
			cuts[i] = end
		}
	}
	for ; i < n; i++ {
		cuts[i] = size
	}
	return cuts, nil
}

// lineStart returns the first line start at or past off: off itself when
// it is 0 or follows a '\n', else the offset just past the next '\n', or
// size when no line starts after off.
func lineStart(r io.ReaderAt, off, size int64, buf []byte) (int64, error) {
	if off == 0 {
		return 0, nil
	}
	for pos := off - 1; pos < size; {
		k, err := r.ReadAt(buf[:min(int64(len(buf)), size-pos)], pos)
		if i := bytes.IndexByte(buf[:k], '\n'); i >= 0 {
			return pos + int64(i) + 1, nil
		}
		if err == io.EOF {
			break // the file shrank since it was sized
		}
		if err != nil {
			return 0, err
		}
		pos += int64(k)
	}
	return size, nil
}

// mapShards starts one map worker process per range [cuts[i], cuts[i+1])
// of f, all at once, each reading its own section of f through its stdin
// and writing a sketch file into tmp. It waits for every worker and
// returns the sketch paths in shard order. A failed worker's error names
// its shard and byte range, since the line or record numbers the worker
// reports count from the start of its shard.
func mapShards(f *os.File, cuts []int64, tmp, exe string, mapArgs []string, stderr io.Writer) ([]string, error) {
	n := len(cuts) - 1
	sketches := make([]string, n)
	cmds := make([]*exec.Cmd, 0, n)
	var err error
	for i := range sketches {
		sketches[i] = filepath.Join(tmp, fmt.Sprintf("shard%d.jxsk", i))
		cmd := exec.Command(exe, append([]string{"map", "-o", sketches[i]}, mapArgs...)...)
		cmd.Stdin = io.NewSectionReader(f, cuts[i], cuts[i+1]-cuts[i])
		cmd.Stderr = stderr
		// Lets a test binary recognize it must act as jxshard.
		cmd.Env = append(os.Environ(), "JXSHARD_WORKER_PROCESS=1")
		if err = cmd.Start(); err != nil {
			err = fmt.Errorf("starting map worker %d: %w", i, err)
			break
		}
		cmds = append(cmds, cmd)
	}
	for i, cmd := range cmds {
		if err != nil {
			cmd.Process.Kill() // a worker failed or never started: the run is over
		}
		if werr := cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("map shard %d of %d, input bytes %d-%d (its line and record numbers count from the shard's first byte): %w",
				i, n, cuts[i], cuts[i+1], werr)
		}
	}
	if err != nil {
		return nil, err
	}
	return sketches, nil
}

func printSchema(stdout io.Writer, s schema.Schema, format string) error {
	switch format {
	case "pretty":
		fmt.Fprintln(stdout, s.String())
	case "jsonschema":
		data, err := schema.MarshalJSONSchema(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	case "native":
		data, err := schema.Marshal(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}
