package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"jxplain/internal/core"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// The traced ops replay what the untraced op's program does, through the
// same public functions, with a span around each call. They run in fresh
// processes like the untraced ops, so the interner starts cold.

// traceFlags are the flags shared by the traced subcommands.
type traceFlags struct {
	fs     *flag.FlagSet
	op     *int
	idBase *int
	parent *int
	spans  *string
	out    *string
}

func newTraceFlags(name string) *traceFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return &traceFlags{
		fs:     fs,
		op:     fs.Int("op", 0, "op id stamped on every span"),
		idBase: fs.Int("id-base", 0, "span ids start after this"),
		parent: fs.Int("parent", 0, "parent span id of this process's root span"),
		spans:  fs.String("spans", "", "file the spans and counters are written to"),
		out:    fs.String("o", "", "output file (schema, or sketch for trace-map)"),
	}
}

// tracedFold runs ingest.Each over r into acc, with a span around Each
// and one around every AddBag callback.
func tracedFold(rec *recorder, parent int, r io.Reader, opts ingest.Options, acc *core.Accumulator) error {
	each := rec.Start("ingest.Each", parent)
	_, err := ingest.Each(context.Background(), r, opts, func(c ingest.Chunk) error {
		sp := rec.StartMem("core.AddBag", each)
		acc.AddBag(c.Bag)
		rec.End(sp)
		return nil
	})
	rec.End(each)
	return err
}

// tracedSnapshot takes one Finish+Simplify snapshot. Stats is timed on
// its own just before Finish, which recomputes it, so the synthesis time
// of passes 2/3 is derived as Finish minus Stats.
func tracedSnapshot(rec *recorder, parent int, acc *core.Accumulator) schema.Schema {
	snap := rec.Start("snapshot", parent)
	sp := rec.StartMem("core.Stats", snap)
	stats := acc.Stats()
	rec.End(sp)
	sp = rec.StartMem("core.Finish", snap)
	raw := acc.Finish()
	rec.End(sp)
	sp = rec.Start("schema.Simplify", snap)
	s := schema.Simplify(raw)
	rec.End(sp)
	rec.End(snap)
	rec.trace.Counters["core.paths"] = float64(len(stats))
	return s
}

// finishTraced records the accumulator's final counters and writes the
// native schema.
func finishTraced(rec *recorder, root int, acc *core.Accumulator, s schema.Schema, out string) error {
	c := rec.trace.Counters
	c["jsontype.distinct_types"] = float64(acc.Distinct())
	c["core.sketch_nodes"] = float64(acc.SketchNodes())
	c["core.windows_closed"] = float64(acc.WindowsClosed())
	if r := acc.Reservoir(); r != nil {
		c["jsontype.reservoir_evictions"] = float64(r.Evictions())
		c["jsontype.reservoir_dropped"] = float64(r.Dropped())
	}
	c["schema.entities"] = float64(schema.Entities(s))
	sp := rec.Start("schema.Marshal", root)
	data, err := schema.Marshal(s)
	rec.End(sp)
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// cmdTrace is `perfbench trace -workload W -in FILE -o FILE -spans FILE
// -op N`: one traced op.
func cmdTrace(args []string) error {
	tf := newTraceFlags("trace")
	name := tf.fs.String("workload", "", "workload name")
	in := tf.fs.String("in", "", "input JSONL file")
	if err := tf.fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	interned := jsontype.InternedTypes()
	rec := newRecorder(*tf.op, *tf.idBase)
	root := rec.Start("op", *tf.parent)
	var acc *core.Accumulator
	switch w.kind {
	case "cli":
		acc = core.NewAccumulator(discoveryConfig(w))
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tracedFold(rec, root, f, ingest.Options{JSONL: true}, acc); err != nil {
			return err
		}
	case "live":
		acc = core.NewAccumulator(discoveryConfig(w))
		if err := tracedLive(rec, root, *in, acc); err != nil {
			return err
		}
	case "shard":
		if acc, err = tracedShard(rec, root, *in, *tf.op, filepath.Dir(*tf.spans), w); err != nil {
			return err
		}
	}
	s := tracedSnapshot(rec, root, acc)
	if err := finishTraced(rec, root, acc, s, *tf.out); err != nil {
		return err
	}
	rec.End(root)
	rec.Count("jsontype.interned_types", float64(jsontype.InternedTypes()-interned))
	return rec.flush(*tf.spans)
}

// tracedLive feeds the input window by window, as the untraced live op
// does, with a snapshot after every window except the last (the caller
// takes that one).
func tracedLive(rec *recorder, root int, in string, acc *core.Accumulator) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	opts := ingest.Options{JSONL: true, ChunkSize: liveWindow}
	for first := true; ; first = false {
		seg, err := readWindow(br, liveWindow)
		if err != nil {
			return err
		}
		if len(seg) == 0 {
			return nil
		}
		if !first {
			tracedSnapshot(rec, root, acc)
		}
		if err := tracedFold(rec, root, bytes.NewReader(seg), opts, acc); err != nil {
			return err
		}
	}
}

// tracedShard replays jxshard run: it cuts the input into contiguous
// shards at the same byte quotas, feeds each to a `perfbench trace-map`
// process (one decode worker, its own cold interner, its own spans), and
// merges the sketches in shard order.
func tracedShard(rec *recorder, root int, in string, op int, dir string, w *workload) (*core.Accumulator, error) {
	helper, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	maps := rec.Start("jxshard.maps", root)
	type mapProc struct {
		cmd    *exec.Cmd
		stdin  io.WriteCloser
		sketch string
		spans  string
	}
	procs := make([]*mapProc, shardCount)
	for i := range procs {
		p := &mapProc{
			sketch: filepath.Join(dir, fmt.Sprintf("op%d-shard%d.jxsk", op, i)),
			spans:  filepath.Join(dir, fmt.Sprintf("op%d-shard%d.spans.json", op, i)),
		}
		p.cmd = exec.Command(helper, "trace-map", "-o", p.sketch, "-spans", p.spans,
			"-op", fmt.Sprint(op), "-id-base", fmt.Sprint((i+1)*1_000_000), "-parent", fmt.Sprint(maps))
		p.cmd.Stderr = os.Stderr
		if p.stdin, err = p.cmd.StdinPipe(); err == nil {
			err = p.cmd.Start()
		}
		if err != nil {
			for _, q := range procs[:i] {
				q.stdin.Close()
				q.cmd.Wait()
			}
			return nil, err
		}
		procs[i] = p
	}
	size := info.Size()
	cur, written := 0, int64(0)
	feedErr := ingest.Records(f, ingest.Options{JSONL: true}, func(r []byte) error {
		for cur < shardCount-1 && written >= size*int64(cur+1)/int64(shardCount) {
			if err := procs[cur].stdin.Close(); err != nil {
				return err
			}
			cur++
		}
		// r aliases the scanner's buffer: write the newline separately.
		if _, err := procs[cur].stdin.Write(r); err != nil {
			return err
		}
		if _, err := procs[cur].stdin.Write([]byte{'\n'}); err != nil {
			return err
		}
		written += int64(len(r)) + 1
		return nil
	})
	var waitErr error
	for i, p := range procs {
		p.stdin.Close()
		if err := p.cmd.Wait(); err != nil && waitErr == nil {
			waitErr = fmt.Errorf("trace-map %d: %w", i, err)
		}
	}
	rec.End(maps)
	if waitErr != nil {
		return nil, waitErr
	}
	if feedErr != nil {
		return nil, feedErr
	}
	datas := make([][]byte, shardCount)
	for i, p := range procs {
		if datas[i], err = os.ReadFile(p.sketch); err != nil {
			return nil, err
		}
		child, err := readTrace(p.spans)
		if err != nil {
			return nil, err
		}
		rec.imported = append(rec.imported, child.Spans...)
		for k, v := range child.Counters {
			rec.Count(k, v)
		}
		os.Remove(p.sketch)
		os.Remove(p.spans)
	}
	acc := core.NewAccumulator(discoveryConfig(w))
	sp := rec.StartMem("core.MergeSketches", root)
	err = acc.MergeSketches(datas, 0)
	rec.End(sp)
	return acc, err
}

// cmdTraceMap is one traced shard map process: it folds stdin into an
// accumulator with one decode worker and writes the marshalled sketch.
func cmdTraceMap(args []string) error {
	tf := newTraceFlags("trace-map")
	if err := tf.fs.Parse(args); err != nil {
		return err
	}
	interned := jsontype.InternedTypes()
	rec := newRecorder(*tf.op, *tf.idBase)
	root := rec.Start("jxshard.map", *tf.parent)
	acc := core.NewAccumulator(core.Default())
	if err := tracedFold(rec, root, os.Stdin, ingest.Options{JSONL: true, Workers: shardWorkers}, acc); err != nil {
		return err
	}
	sp := rec.StartMem("core.Marshal", root)
	data, err := acc.Marshal()
	rec.End(sp)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*tf.out, data, 0o644); err != nil {
		return err
	}
	rec.End(root)
	rec.Count("core.sketch_bytes", float64(len(data)))
	rec.Count("jsontype.interned_types", float64(jsontype.InternedTypes()-interned))
	return rec.flush(*tf.spans)
}
