package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around a public function of the program. Parent is 0 for an op's
// root. Spans of one op share Op; IDs are unique within an op, also
// across the op's processes (each process gets its own ID base).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // wall clock, Unix nanoseconds
	End    int64  `json:"end_ns"`
	// Allocs and AllocBytes are the process-wide heap allocations made
	// while the span was open, when the span was started with StartMem.
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// Seconds is the span's wall duration.
func (s Span) Seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// opTrace is what one traced process hands back: its spans and its
// additive counters.
type opTrace struct {
	Spans    []Span             `json:"spans"`
	Counters map[string]float64 `json:"counters"`
}

// recorder keeps one process's spans in memory; flush writes them once.
type recorder struct {
	op    int
	next  int
	spans []Span
	// imported holds spans other processes of the op recorded.
	imported []Span
	mem      map[int]runtime.MemStats
	trace    opTrace
	gcStart  runtime.MemStats
}

func newRecorder(op, idBase int) *recorder {
	r := &recorder{op: op, next: idBase, mem: map[int]runtime.MemStats{},
		trace: opTrace{Counters: map[string]float64{}}}
	runtime.ReadMemStats(&r.gcStart)
	return r
}

// Start opens a span and returns its ID.
func (r *recorder) Start(name string, parent int) int {
	r.next++
	r.spans = append(r.spans, Span{ID: r.next, Parent: parent, Op: r.op, Name: name, Start: time.Now().UnixNano()})
	return r.next
}

// StartMem opens a span that also records the heap allocations made
// while it is open. It costs two stop-the-world MemStats reads.
func (r *recorder) StartMem(name string, parent int) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := r.Start(name, parent)
	r.mem[id] = ms
	return id
}

// End closes span id.
func (r *recorder) End(id int) {
	now := time.Now().UnixNano()
	s := &r.spans[r.index(id)]
	s.End = now
	if before, ok := r.mem[id]; ok {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Allocs = ms.Mallocs - before.Mallocs
		s.AllocBytes = ms.TotalAlloc - before.TotalAlloc
		delete(r.mem, id)
	}
}

func (r *recorder) index(id int) int {
	// Spans are appended in ID order, so the ID indexes them directly
	// once the base is subtracted.
	return id - r.spans[0].ID
}

// Count adds v to an additive counter.
func (r *recorder) Count(name string, v float64) { r.trace.Counters[name] += v }

// flush adds the process's GC counters and writes the trace to path.
func (r *recorder) flush(path string) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Count("runtime.gc_cycles", float64(ms.NumGC-r.gcStart.NumGC))
	r.Count("runtime.gc_pause_s", float64(ms.PauseTotalNs-r.gcStart.PauseTotalNs)/1e9)
	r.trace.Spans = append(r.spans, r.imported...)
	data, err := json.Marshal(&r.trace)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its children. Children may
// overlap each other (concurrent map processes); the union is subtracted
// once, and a child's time outside its parent's interval is ignored.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(lo, hi int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// layerMetrics derives the per-layer metrics of one traced op from its
// spans and counters. inputBytes is the op's input size.
func layerMetrics(t opTrace, inputBytes int64) map[string]float64 {
	self := selfTimes(t.Spans)
	wall := map[string]float64{}
	selfByName := map[string]float64{}
	allocs := map[string]float64{}
	allocMB := map[string]float64{}
	count := map[string]float64{}
	var mapMax, mapSum float64
	var maps int
	for _, s := range t.Spans {
		wall[s.Name] += s.Seconds()
		selfByName[s.Name] += float64(self[s.ID]) / 1e9
		allocs[s.Name] += float64(s.Allocs)
		allocMB[s.Name] += float64(s.AllocBytes) / (1 << 20)
		count[s.Name]++
		if s.Name == "jxshard.map" {
			mapMax = max(mapMax, s.Seconds())
			mapSum += s.Seconds()
			maps++
		}
	}
	m := map[string]float64{
		"ingest.fold_s":         wall["ingest.Each"],
		"ingest.wait_s":         selfByName["ingest.Each"],
		"ingest.chunks":         count["core.AddBag"],
		"core.addbag_s":         wall["core.AddBag"],
		"core.addbag.allocs":    allocs["core.AddBag"],
		"core.addbag.alloc_mb":  allocMB["core.AddBag"],
		"core.stats_s":          wall["core.Stats"],
		"core.synth_s":          wall["core.Finish"] - wall["core.Stats"],
		"core.synth.allocs":     allocs["core.Finish"] - allocs["core.Stats"],
		"core.synth.alloc_mb":   allocMB["core.Finish"] - allocMB["core.Stats"],
		"core.marshal_s":        wall["core.Marshal"],
		"core.merge_sketches_s": wall["core.MergeSketches"],
		"schema.simplify_s":     wall["schema.Simplify"],
		"jxshard.map_max_s":     mapMax,
		"jxshard.map_skew":      0,
		"ingest.mb_s":           0,
	}
	if wall["ingest.Each"] > 0 {
		m["ingest.mb_s"] = float64(inputBytes) / 1e6 / wall["ingest.Each"]
	}
	if maps > 0 && mapSum > 0 {
		m["jxshard.map_skew"] = mapMax / (mapSum / float64(maps))
	}
	for k, v := range t.Counters {
		m[k] = v
	}
	return m
}
