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

// reduceIters matches the other wall-time benchmarks: each measurement is
// the mean of this many reduce executions.
const reduceIters = 3

// reduceShardGrid is the map-output width axis: how many sketch files the
// reducer has to fold. The high end is where a sequential reduce becomes
// the Amdahl bottleneck of a sharded run.
var reduceShardGrid = []int{1, 2, 4, 8, 16, 32}

// reduceWorkerGrid is the -reduce-workers axis of the tree reduce.
var reduceWorkerGrid = []int{1, 2, 4, 8}

// ReduceRow is one (dataset, shard count, reduce workers) cell: the input
// is mapped into `Shards` serialized sketches once, and the reduce —
// core.ReduceSketches' balanced adjacent-pair tree — is measured at
// `Workers` concurrent mergers.
type ReduceRow struct {
	Dataset string `json:"dataset"`
	Records int    `json:"records"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`

	// MapNs is the map phase wall time (all shards folded and marshaled
	// concurrently), measured once per shard count for context.
	MapNs float64 `json:"map_ns"`
	// ReduceNs is the wall time to tree-merge all sketches into one
	// accumulator; synthesis (passes ②/③) is excluded since it is
	// constant in both axes.
	ReduceNs float64 `json:"reduce_ns"`
	// ReduceAllocs is the heap allocation count per reduce op.
	ReduceAllocs float64 `json:"reduce_allocs"`

	// MaterializeNs/MaterializeAllocs time the materialize baseline —
	// each file decoded into a fresh accumulator (UnmarshalAccumulator,
	// itself a merge into an empty accumulator) and then Merge'd, file by
	// file — on the sequential rows only (Workers == 1), where the two
	// are directly comparable.
	MaterializeNs     float64 `json:"materialize_ns,omitempty"`
	MaterializeAllocs float64 `json:"materialize_allocs,omitempty"`

	// Speedup is the same-shard-count sequential ReduceNs over this
	// ReduceNs.
	Speedup float64 `json:"speedup,omitempty"`

	// ByteIdentical confirms the tree-reduced schema equals the
	// single-process schema byte for byte. A false value never reaches the
	// output: divergence aborts the run.
	ByteIdentical bool `json:"byte_identical"`
}

// ReduceResult is the reduce-scaling benchmark (BENCH_reduce.json).
type ReduceResult struct {
	Note string      `json:"note"`
	Rows []ReduceRow `json:"rows"`
}

// RunReduceBench measures the parallel tree reduce over the shard ×
// worker grid, verifying byte-equivalence against single-process
// discovery on every cell before timing it.
func RunReduceBench(o Options) (*ReduceResult, error) {
	o = o.Defaults()
	gens, err := o.generators()
	if err != nil {
		return nil, err
	}
	res := &ReduceResult{
		Note: fmt.Sprintf("parallel tree reduce over serialized sketches: shards is the map-output width, workers the "+
			"-reduce-workers axis; reduce_ns covers sketch decode+merge only; materialize_* is the "+
			"decode-into-a-fresh-accumulator-then-Merge baseline on the sequential rows; n=DefaultN, seed=%d, %d iters, GOMAXPROCS=%d — "+
			"byte_identical is verified before any cell is timed",
			o.Seed, reduceIters, runtime.GOMAXPROCS(0)),
	}
	for _, g := range gens {
		rows, err := reduceDataset(g, o)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

func reduceDataset(g *dataset.Generator, o Options) ([]ReduceRow, error) {
	records := g.Generate(o.scaledN(g), o.Seed)
	var input bytes.Buffer
	for _, rec := range records {
		data, err := json.Marshal(rec.Value)
		if err != nil {
			return nil, fmt.Errorf("reduce: marshal %s: %w", g.Name, err)
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
		return nil, fmt.Errorf("reduce: %s: %w", g.Name, err)
	}
	want, err := schema.Marshal(schema.Simplify(single.Finish()))
	if err != nil {
		return nil, err
	}

	var rows []ReduceRow
	for _, shards := range reduceShardGrid {
		sketches, mapNs, err := mapSketches(g.Name, lines, shards)
		if err != nil {
			return nil, err
		}
		baseNs := 0.0
		for _, workers := range reduceWorkerGrid {
			row := ReduceRow{Dataset: g.Name, Records: len(records),
				Shards: shards, Workers: workers, MapNs: mapNs}

			// Verify on a warm-up pass so a broken cell fails before it is
			// measured: byte-equivalence is the contract, not a best-effort
			// property, and a divergent cell aborts the whole run rather
			// than recording timings for a wrong answer.
			acc, err := core.ReduceSketches(sketches, cfg, workers)
			if err != nil {
				return nil, fmt.Errorf("reduce: %s shards=%d workers=%d: %w", g.Name, shards, workers, err)
			}
			got, err := schema.Marshal(schema.Simplify(acc.Finish()))
			if err != nil {
				return nil, err
			}
			row.ByteIdentical = bytes.Equal(got, want)
			if !row.ByteIdentical {
				return nil, fmt.Errorf("reduce: %s shards=%d workers=%d: tree-reduced schema diverges from single-process schema",
					g.Name, shards, workers)
			}

			row.ReduceNs, row.ReduceAllocs, err = timedReduce(reduceIters, func() error {
				_, err := core.ReduceSketches(sketches, cfg, workers)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("reduce: %s shards=%d workers=%d: %w", g.Name, shards, workers, err)
			}
			if workers == 1 {
				baseNs = row.ReduceNs
				row.MaterializeNs, row.MaterializeAllocs, err = timedReduce(reduceIters, func() error {
					acc := core.NewAccumulator(cfg)
					for _, data := range sketches {
						other, err := core.UnmarshalAccumulator(data, cfg)
						if err != nil {
							return err
						}
						acc.Merge(other)
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("reduce: %s shards=%d materialize: %w", g.Name, shards, err)
				}
			}
			if baseNs > 0 && row.ReduceNs > 0 {
				row.Speedup = baseNs / row.ReduceNs
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// mapSketches folds the lines into `shards` contiguous sketches, one
// goroutine per shard (the in-process analogue of cmd/jxshard's map
// worker processes), returning the serialized files and the phase's wall
// time.
func mapSketches(name string, lines [][]byte, shards int) ([][]byte, float64, error) {
	parts := make([][]byte, shards)
	start := 0
	for i := 0; i < shards; i++ {
		end := len(lines) * (i + 1) / shards
		parts[i] = bytes.Join(lines[start:end], nil)
		start = end
	}
	t0 := time.Now()
	sketches := dist.Map(parts, shards, func(part []byte) []byte {
		acc := core.NewAccumulator(core.Default())
		if _, err := ingest.Fold(context.Background(), bytes.NewReader(part),
			ingest.Options{JSONL: true, Workers: 1}, acc); err != nil {
			return nil
		}
		data, err := acc.Marshal()
		if err != nil {
			return nil
		}
		return data
	})
	mapNs := float64(time.Since(t0).Nanoseconds())
	for _, s := range sketches {
		if s == nil {
			return nil, 0, fmt.Errorf("reduce: %s: map fold failed", name)
		}
	}
	return sketches, mapNs, nil
}

// timedReduce runs op iters times and returns the mean wall time and mean
// heap allocation count per op. Mallocs is process-global, so callers keep
// background work out of the measured window.
func timedReduce(iters int, op func() error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(m1.Mallocs-m0.Mallocs) / float64(iters), nil
}

func (r *ReduceResult) table() *table {
	t := &table{
		title: "Parallel tree reduce over serialized sketches",
		headers: []string{"dataset", "records", "shards", "workers", "map ms",
			"reduce ms", "allocs", "matz ms", "matz allocs", "speedup", "identical"},
	}
	fmtOpt := func(v float64, format string) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf(format, v)
	}
	for _, row := range r.Rows {
		t.addRow(row.Dataset,
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%.2f", row.MapNs/1e6),
			fmt.Sprintf("%.3f", row.ReduceNs/1e6),
			fmt.Sprintf("%.0f", row.ReduceAllocs),
			fmtOpt(row.MaterializeNs/1e6, "%.3f"),
			fmtOpt(row.MaterializeAllocs, "%.0f"),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%v", row.ByteIdentical))
	}
	return t
}

// Render formats the grid as an ASCII table.
func (r *ReduceResult) Render() string { return r.table().Render() }

// CSV formats the grid as CSV.
func (r *ReduceResult) CSV() string { return r.table().CSV() }

// JSON serializes the result for results/BENCH_reduce.json.
func (r *ReduceResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
