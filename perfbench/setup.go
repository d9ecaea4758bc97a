package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// generate writes the workload's JSONL input for seed. It is the only code
// in the benchmark that calls a dataset generator, and it runs in its own
// process: generators intern every record type, which would warm the
// interner of any op that shared the process.
func generate(w *workload, seed int64, out io.Writer) error {
	bw := bufio.NewWriterSize(out, 1<<16)
	enc := json.NewEncoder(bw)
	for i, p := range w.phases {
		g, ok := dataset.ByName(p.dataset)
		if !ok {
			return fmt.Errorf("unknown dataset %q", p.dataset)
		}
		for _, rec := range g.Generate(p.records, phaseSeed(seed, i)) {
			if err := enc.Encode(rec.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// cmdGen is `perfbench gen -workload W -seed S -o FILE`.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("o", "", "output JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := generate(w, *seed, f); err != nil {
		f.Close()
		return fmt.Errorf("generating %s: %w", w.name, err)
	}
	return f.Close()
}

// refSummary is what `perfbench ref` reports besides the schema.
type refSummary struct {
	Records      int   `json:"records"`
	Distinct     int   `json:"distinct"`
	ShippedBytes int64 `json:"shipped_bytes"`
}

// readLines returns the non-blank lines of a JSONL file.
func readLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
	}
	return lines, nil
}

// bagOf decodes records one by one, in order, into a bag.
func bagOf(lines [][]byte) (*jsontype.Bag, error) {
	bag := &jsontype.Bag{}
	for i, line := range lines {
		t, err := jsontype.FromJSON(line)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i+1, err)
		}
		bag.Add(t)
	}
	return bag, nil
}

// reference computes the workload's expected native schema with the
// sequential in-process pipeline: records decoded one at a time, no
// decode pool, no parallel passes. The live workload replays its windows
// through a bounded accumulator, one AddBag per window, and snapshots
// once at the end.
func reference(w *workload, lines [][]byte) ([]byte, refSummary, error) {
	cfg := discoveryConfig(w)
	acc := core.NewAccumulator(cfg)
	step := len(lines)
	if w.kind == "live" {
		step = liveWindow
	}
	for lo := 0; lo < len(lines); lo += step {
		hi := min(lo+step, len(lines))
		bag, err := bagOf(lines[lo:hi])
		if err != nil {
			return nil, refSummary{}, fmt.Errorf("record %d: %w", lo+1, err)
		}
		acc.AddBag(bag)
	}
	sum := refSummary{Records: acc.Records(), Distinct: acc.Distinct()}
	out, err := schema.Marshal(schema.Simplify(acc.Finish()))
	if err != nil {
		return nil, sum, err
	}
	if w.kind == "shard" {
		if sum.ShippedBytes, err = shippedBytes(lines); err != nil {
			return nil, sum, err
		}
	}
	return append(out, '\n'), sum, nil
}

// shippedBytes is the total size of the sketches jxshard run's map
// workers write for this input: contiguous shards cut at the first record
// boundary past each byte quota, each folded and marshalled on its own.
func shippedBytes(lines [][]byte) (int64, error) {
	var total int64
	for _, shard := range splitShards(lines, shardCount) {
		acc := core.NewAccumulator(core.Default())
		if _, err := ingest.Fold(context.Background(), bytes.NewReader(bytes.Join(shard, []byte{'\n'})),
			ingest.Options{JSONL: true, Workers: shardWorkers}, acc); err != nil {
			return 0, err
		}
		data, err := acc.Marshal()
		if err != nil {
			return 0, err
		}
		total += int64(len(data))
	}
	return total, nil
}

// splitShards cuts records into n contiguous shards the way jxshard run
// does: a record goes to the current shard unless the bytes already
// written (records plus newlines) reached that shard's quota
// size·(i+1)/n.
func splitShards(lines [][]byte, n int) [][][]byte {
	var size int64
	for _, l := range lines {
		size += int64(len(l)) + 1
	}
	shards := make([][][]byte, n)
	cur, written := 0, int64(0)
	for _, l := range lines {
		for cur < n-1 && written >= size*int64(cur+1)/int64(n) {
			cur++
		}
		shards[cur] = append(shards[cur], l)
		written += int64(len(l)) + 1
	}
	return shards
}

// cmdRef is `perfbench ref -workload W -in FILE -o FILE`; it prints a
// refSummary as JSON.
func cmdRef(args []string) error {
	fs := flag.NewFlagSet("ref", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	in := fs.String("in", "", "input JSONL file")
	out := fs.String("o", "", "output native schema file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	lines, err := readLines(*in)
	if err != nil {
		return err
	}
	data, sum, err := reference(w, lines)
	if err != nil {
		return fmt.Errorf("reference for %s: %w", w.name, err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(sum)
}
