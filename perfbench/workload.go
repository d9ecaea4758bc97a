package main

import (
	"fmt"
	"path/filepath"

	"jxplain/internal/core"
)

// workload is one seeded input shape and the operation each op runs over
// it. Inputs are the concatenation of the phases' generator output.
type workload struct {
	name   string
	why    string
	phases []phase
	// kind selects the op: "cli" (jxplain), "shard" (jxshard run) or
	// "live" (the Discoverer driver in this package).
	kind string
}

// phase is one generator's contiguous run of records.
type phase struct {
	dataset string
	records int
}

// The live workload's stream bounds: a window every liveWindow records,
// liveRing closed windows retained, a reservoir of liveCapacity distinct
// types, and decay at every rotation. liveWindow stays below the ingest
// default chunk (2048) so every window is exactly one chunk.
const (
	liveWindow   = 1000
	liveRing     = 4
	liveCapacity = 1024
	liveDecay    = 0.5
)

// shardCount and shardWorkers are the jxshard run shape: two map
// processes with one decode worker each, so an op uses at most two cores.
const (
	shardCount   = 2
	shardWorkers = 1
)

var workloads = []*workload{
	{
		name:   "events",
		why:    "github event log, ~60 distinct types: ingest and scan dominate, passes 2/3 are a few percent",
		phases: []phase{{"github", 40000}},
		kind:   "cli",
	},
	{
		name:   "distinct",
		why:    "nested twitter records, >4096 distinct types: passes 2/3 take over half the wall time",
		phases: []phase{{"twitter", 16000}},
		kind:   "cli",
	},
	{
		name:   "shard",
		why:    "pharma, every record distinct, through jxshard run: the only path over the wire format and tree reduce",
		phases: []phase{{"pharma", 20000}},
		kind:   "shard",
	},
	{
		name: "live",
		why:  "churn stream through the bounded Discoverer with a snapshot per window: reads interleaved with writes",
		phases: []phase{
			{"github", 4000}, {"twitter", 4000}, {"nyt", 4000}, {"synapse", 4000},
			{"github", 4000}, {"twitter", 4000},
		},
		kind: "live",
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want events, distinct, shard or live)", name)
}

// records is the workload's input length in records.
func (w *workload) records() int {
	n := 0
	for _, p := range w.phases {
		n += p.records
	}
	return n
}

// phaseSeed derives phase i's generator seed from the run seed, so phases
// that reuse a generator draw different records.
func phaseSeed(seed int64, i int) int64 { return seed + int64(i)*7919 }

// discoveryConfig is the configuration every op and the reference share:
// jxplain's defaults (its -seed flag defaults to 1), plus the stream
// bounds on the live workload.
func discoveryConfig(w *workload) core.Config {
	cfg := core.Default()
	cfg.Seed = 1
	if w.kind == "live" {
		cfg.Bounds = core.Bounds{
			ReservoirCapacity: liveCapacity,
			WindowRecords:     liveWindow,
			WindowCount:       liveRing,
			DecayFactor:       liveDecay,
		}
	}
	return cfg
}

// command is the untraced op's argv: the program as a CLI user runs it.
func (w *workload) command(bin, helper, input string) []string {
	switch w.kind {
	case "shard":
		return []string{filepath.Join(bin, "jxshard"), "run",
			"-shards", fmt.Sprint(shardCount), "-workers", fmt.Sprint(shardWorkers),
			"-jsonl", "-format", "native", input}
	case "live":
		return []string{helper, "live", "-workload", w.name, "-in", input}
	}
	return []string{filepath.Join(bin, "jxplain"), "-jsonl", "-format", "native", input}
}
