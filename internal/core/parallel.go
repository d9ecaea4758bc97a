package core

import (
	"runtime"
	"sort"
)

// Parallel pass ①. CollectPathStats walks the whole bag sequentially; on a
// cluster (or across cores) the paper instead computes the per-path
// statistics as a partitioned fold with fan-in aggregation, which works
// because every statistic Algorithm 5 needs is mergeable:
//
//   - record and key-presence counters add,
//   - array-length histograms add,
//   - the similar-types constraint combines through the subsumption rule
//     (each partition keeps its maximal type; partitions are jointly
//     similar iff their maximal types are similar).
//
// statsTrie (statstrie.go) is the per-partition state, sketchFromBag
// (sketch.go) the one fold driver, and this file the rule deciding how
// wide the config-driven fan-outs run. The same mergeability is what the
// wire format (wire.go) ships across processes: a sketch serialized on
// one machine folds into another machine's trie exactly as an in-process
// Merge would.

// ParallelCutover is the distinct-record-type count below which the
// config-driven parallel paths — the pass-① partitioned fold and the
// pass-②/③ synthesis fan-out — run sequentially. Goroutine fan-out and
// fan-in merging carry a fixed cost per op; on collections with little
// distinct structure that overhead exceeds the fold's work and the
// "parallel" run measures slower than the sequential one (the hotpath
// benchmark showed par_ns_per_op > ns_per_op exactly on the datasets
// whose distinct-type count sits below this bound). Exported so harnesses
// and tests can tell whether an input fans out.
const ParallelCutover = 4096

// fanOutWidth is the worker count of every config-driven fan-out over a
// collection with the given distinct-type count: 1 below the parallel
// cutover, otherwise one per schedulable core.
func fanOutWidth(distinct int) int {
	if distinct < ParallelCutover {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

func deriveStats(root *statsTrie, cfg Config) []PathStat {
	var out []PathStat
	root.derive(RootPath, cfg, &out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
