package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/dist"
	"jxplain/internal/ingest"
	"jxplain/internal/schema"
)

// shardIters matches the other wall-time benchmarks: each measurement is
// the mean of this many full map+reduce executions.
const shardIters = 3

// shardWorkerGrid is the scale-out grid (cmd/jxshard's -shards axis).
var shardWorkerGrid = []int{1, 2, 4, 8}

// ShardRow is one (dataset, worker count) cell of the scale-out grid: the
// input is split into `Workers` contiguous shards, each folded to a
// serialized sketch (the map phase, shards in parallel), and the sketches
// are merged in shard order and synthesized once (the reduce phase).
type ShardRow struct {
	Dataset string `json:"dataset"`
	Records int    `json:"records"`
	Workers int    `json:"workers"`

	// MapNs is the map phase wall time per op: all shards decoded, folded
	// and marshaled concurrently, as `jxshard run`'s worker processes do,
	// each on its own byte range of the input (here as goroutines, so the
	// grid isolates the algorithmic scaling from process spawn cost).
	MapNs float64 `json:"map_ns"`
	// ReduceNs covers sketch decode, merge, and passes ②/③.
	ReduceNs float64 `json:"reduce_ns"`
	TotalNs  float64 `json:"total_ns"`

	// MapAllocs/ReduceAllocs are heap allocation counts per op for the
	// same two phases — the reduce column is what the merge-into decoder
	// is accountable for.
	MapAllocs    float64 `json:"map_allocs"`
	ReduceAllocs float64 `json:"reduce_allocs"`

	// SketchBytes is the total serialized size of all map outputs — the
	// bytes a cluster would move over the network per discovery.
	SketchBytes int `json:"sketch_bytes"`

	// Speedup is this row's 1-worker TotalNs over this TotalNs.
	Speedup float64 `json:"speedup,omitempty"`

	// ByteIdentical confirms the reduced schema equals the single-process
	// schema byte for byte.
	ByteIdentical bool `json:"byte_identical"`
}

// ShardResult is the scale-out benchmark (BENCH_shard.json).
type ShardResult struct {
	Note string     `json:"note"`
	Rows []ShardRow `json:"rows"`
}

// RunShardBench measures sharded map/reduce discovery over the worker
// grid and verifies byte-equivalence against single-process discovery on
// every cell.
func RunShardBench(o Options) (*ShardResult, error) {
	o = o.Defaults()
	gens, err := o.generators()
	if err != nil {
		return nil, err
	}
	res := &ShardResult{
		Note: fmt.Sprintf("sharded map/reduce via the sketch wire format: contiguous split, parallel shard folds, "+
			"in-order reduce; n=DefaultN, seed=%d, %d iters; speedup is vs the 1-worker row and bounded by "+
			"available cores (GOMAXPROCS=%d here) — byte_identical is the load-bearing column",
			o.Seed, shardIters, runtime.GOMAXPROCS(0)),
	}
	for _, g := range gens {
		rows, err := shardDataset(g, o)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

func shardDataset(g *dataset.Generator, o Options) ([]ShardRow, error) {
	records := g.Generate(o.scaledN(g), o.Seed)
	var input bytes.Buffer
	for _, rec := range records {
		data, err := json.Marshal(rec.Value)
		if err != nil {
			return nil, fmt.Errorf("shard: marshal %s: %w", g.Name, err)
		}
		input.Write(data)
		input.WriteByte('\n')
	}
	lines := bytes.SplitAfter(input.Bytes(), []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}

	cfg := core.Default()
	single := core.NewAccumulator(cfg)
	if _, err := ingest.Fold(context.Background(), bytes.NewReader(input.Bytes()),
		ingest.Options{JSONL: true}, single); err != nil {
		return nil, fmt.Errorf("shard: %s: %w", g.Name, err)
	}
	want, err := schema.Marshal(schema.Simplify(single.Finish()))
	if err != nil {
		return nil, err
	}

	var rows []ShardRow
	baseNs := 0.0
	for _, workers := range shardWorkerGrid {
		row, err := shardCell(g.Name, lines, workers, cfg, want)
		if err != nil {
			return nil, err
		}
		row.Records = len(records)
		if workers == 1 {
			baseNs = row.TotalNs
		}
		if baseNs > 0 && row.TotalNs > 0 {
			row.Speedup = baseNs / row.TotalNs
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// shardCell measures one grid cell. Map folds run as one goroutine per
// shard through dist.Map — the in-process analogue of cmd/jxshard's
// worker processes — and the reduce merges the serialized sketches in
// shard order.
func shardCell(name string, lines [][]byte, workers int, cfg core.Config, want []byte) (ShardRow, error) {
	shards := make([][]byte, workers)
	start := 0
	for i := 0; i < workers; i++ {
		end := len(lines) * (i + 1) / workers
		shards[i] = bytes.Join(lines[start:end], nil)
		start = end
	}

	mapPhase := func() ([][]byte, error) {
		sketches := dist.Map(shards, workers, func(shard []byte) []byte {
			acc := core.NewAccumulator(core.Default())
			// One decode worker per mapper: the shard count is then the
			// only parallelism axis, modeling a cluster of single-core
			// map tasks rather than co-scheduled multi-core processes.
			if _, err := ingest.Fold(context.Background(), bytes.NewReader(shard),
				ingest.Options{JSONL: true, Workers: 1}, acc); err != nil {
				return nil
			}
			data, err := acc.Marshal()
			if err != nil {
				return nil
			}
			return data
		})
		for _, s := range sketches {
			if s == nil {
				return nil, fmt.Errorf("shard: %s: map fold failed", name)
			}
		}
		return sketches, nil
	}
	reducePhase := func(sketches [][]byte) ([]byte, error) {
		acc := core.NewAccumulator(cfg)
		for _, data := range sketches {
			if err := acc.MergeSketch(data); err != nil {
				return nil, err
			}
		}
		return schema.Marshal(schema.Simplify(acc.Finish()))
	}

	row := ShardRow{Dataset: name, Workers: workers}

	// Warm up once (interner growth, allocator) and verify equivalence on
	// the warm-up pass so a broken cell fails before it is measured.
	sketches, err := mapPhase()
	if err != nil {
		return row, err
	}
	for _, s := range sketches {
		row.SketchBytes += len(s)
	}
	got, err := reducePhase(sketches)
	if err != nil {
		return row, fmt.Errorf("shard: %s workers=%d: %w", name, row.Workers, err)
	}
	row.ByteIdentical = bytes.Equal(got, want)
	if !row.ByteIdentical {
		// Byte-equivalence is the contract, not a best-effort property:
		// a divergent cell means the wire format or merge order broke, and
		// the whole run fails rather than recording timings for a wrong
		// answer.
		return row, fmt.Errorf("shard: %s workers=%d: reduced schema diverges from single-process schema",
			name, row.Workers)
	}

	var mapTotal, reduceTotal time.Duration
	var mapAllocs, reduceAllocs uint64
	var m0, m1, m2 runtime.MemStats
	for i := 0; i < shardIters; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		sketches, err := mapPhase()
		if err != nil {
			return row, err
		}
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if _, err := reducePhase(sketches); err != nil {
			return row, err
		}
		reduceEnd := time.Now()
		runtime.ReadMemStats(&m2)
		mapTotal += t1.Sub(t0)
		reduceTotal += reduceEnd.Sub(t1)
		mapAllocs += m1.Mallocs - m0.Mallocs
		reduceAllocs += m2.Mallocs - m1.Mallocs
	}
	row.MapNs = float64(mapTotal.Nanoseconds()) / shardIters
	row.ReduceNs = float64(reduceTotal.Nanoseconds()) / shardIters
	row.TotalNs = row.MapNs + row.ReduceNs
	row.MapAllocs = float64(mapAllocs) / shardIters
	row.ReduceAllocs = float64(reduceAllocs) / shardIters
	return row, nil
}

func (r *ShardResult) table() *table {
	t := &table{
		title: "Sharded map/reduce discovery (sketch wire format)",
		headers: []string{"dataset", "records", "workers", "map ms", "reduce ms",
			"total ms", "map allocs", "reduce allocs", "sketch KiB", "speedup", "identical"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Dataset,
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%.2f", row.MapNs/1e6),
			fmt.Sprintf("%.2f", row.ReduceNs/1e6),
			fmt.Sprintf("%.2f", row.TotalNs/1e6),
			fmt.Sprintf("%.0f", row.MapAllocs),
			fmt.Sprintf("%.0f", row.ReduceAllocs),
			fmt.Sprintf("%.1f", float64(row.SketchBytes)/1024),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%v", row.ByteIdentical))
	}
	return t
}

// Render formats the grid as an ASCII table.
func (r *ShardResult) Render() string { return r.table().Render() }

// CSV formats the grid as CSV.
func (r *ShardResult) CSV() string { return r.table().CSV() }

// JSON serializes the result for results/BENCH_shard.json.
func (r *ShardResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
