package main

// metric is one reported metric: its name, unit and what it means.
type metric struct {
	name, unit, doc string
}

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// Each applies to every workload and is never 0, so each can carry a
// regression bound. The workload-specific user-facing numbers
// (snapshot_ms_*, shipped_mb) and failed_frac are printed in the report
// but not listed here: a listed metric must exist on every workload, and
// failed_frac is 0 on a passing run (its share is carried by the result's
// attempted/failed fields).
var endToEnd = []metric{
	{"throughput_mb_s", "MB/s", "input bytes over op wall time, median over ops"},
	{"peak_rss_mb", "MiB", "largest peak RSS of any process in the op, median over ops"},
	{"cpu_s_per_gb", "s/GB", "user+sys CPU of all processes in the op per GB of input, median over ops"},
	{"setup_s", "s", "builds, input generation and reference schema, median over the run's setups"},
}

// perLayer are the metrics of a traced run. Spans are recorded by this
// package around the program's public functions; _s metrics are per-op
// totals, counts are per op, and each is the median over the run's
// traced ops. A layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"ingest.fold_s", "s", "wall time of ingest.Each over the input"},
	{"ingest.wait_s", "s", "ingest.Each self time: the consumer waiting on framing and decode"},
	{"ingest.mb_s", "MB/s", "input bytes over ingest.fold_s"},
	{"ingest.chunks", "count", "chunks ingest.Each delivered"},
	{"jsontype.interned_types", "count", "jsontype.InternedTypes delta over the op's processes"},
	{"jsontype.distinct_types", "count", "Accumulator.Distinct at the end of the op"},
	{"jsontype.reservoir_evictions", "count", "ReservoirBag.Evictions at the end of the op"},
	{"jsontype.reservoir_dropped", "count", "ReservoirBag.Dropped at the end of the op"},
	{"core.addbag_s", "s", "total of the Accumulator.AddBag spans"},
	{"core.addbag.allocs", "count", "process-wide heap allocations while AddBag spans were open (includes concurrent decode)"},
	{"core.addbag.alloc_mb", "MiB", "process-wide heap bytes allocated while AddBag spans were open"},
	{"core.stats_s", "s", "total of the Accumulator.Stats spans"},
	{"core.paths", "count", "path statistics the last Stats returned"},
	{"core.sketch_nodes", "count", "Accumulator.SketchNodes at the end of the op"},
	{"core.synth_s", "s", "derived: Finish spans minus the Stats spans timed just before them (passes 2/3 and memo)"},
	{"core.synth.allocs", "count", "derived: Finish allocations minus Stats allocations"},
	{"core.synth.alloc_mb", "MiB", "derived: Finish bytes allocated minus Stats bytes allocated"},
	{"core.marshal_s", "s", "total of the Accumulator.Marshal spans"},
	{"core.sketch_bytes", "bytes", "sketch bytes the map processes shipped"},
	{"core.merge_sketches_s", "s", "Accumulator.MergeSketches span"},
	{"core.windows_closed", "count", "Accumulator.WindowsClosed at the end of the op"},
	{"jxshard.map_max_s", "s", "slowest shard map span"},
	{"jxshard.map_skew", "ratio", "slowest shard map span over the mean"},
	{"schema.simplify_s", "s", "total of the schema.Simplify spans"},
	{"schema.entities", "count", "schema.Entities of the final schema"},
	{"runtime.gc_cycles", "count", "GC cycles over the op's processes"},
	{"runtime.gc_pause_s", "s", "GC pause time over the op's processes"},
	{"live.snapshot_ms_p50", "ms", "median Finish+Simplify latency of the untraced live ops"},
	{"live.snapshot_ms_tail", "ms", "highest ladder percentile of snapshot latency with >=10 samples beyond it"},
	{"trace.throughput_mb_s", "MB/s", "throughput of the traced ops"},
	{"trace.untraced_throughput_mb_s", "MB/s", "throughput of the untraced ops of the same run"},
	{"trace.overhead_frac", "ratio", "1 - traced/untraced throughput"},
}
