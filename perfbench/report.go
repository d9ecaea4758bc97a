package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// describe prints one metric's median, quartiles and sample count.
func describe(name, unit string, xs []float64, note string) {
	if len(xs) == 0 {
		fmt.Printf("metric %-32s n/a (no samples)\n", name)
		return
	}
	fmt.Printf("metric %-32s %12.4f %-6s p25 %.4f p75 %.4f n=%d%s\n",
		name, median(xs), unit, quantile(xs, 0.25), quantile(xs, 0.75), len(xs), note)
}

// finite maps a missing measurement (NaN) to 0 so the line stays JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// report prints every metric by name and unit, then the result line.
func (b *bench) report(ops []opResult, setups []float64) error {
	res := result{Correct: len(b.problems) == 0, Metrics: map[string]value{}}
	var tp, rss, cpu, snaps, tracedTP []float64
	var traced []opResult
	for _, o := range ops {
		res.Attempted++
		if !o.ok {
			res.Failed++
			res.Correct = false
			continue
		}
		mb := float64(b.inBytes) / 1e6
		if o.traced {
			traced = append(traced, o)
			tracedTP = append(tracedTP, mb/o.wall.Seconds())
			continue
		}
		tp = append(tp, mb/o.wall.Seconds())
		rss = append(rss, float64(o.rssKB)/1024)
		cpu = append(cpu, o.cpu/(float64(b.inBytes)/1e9))
		snaps = append(snaps, o.snapshots...)
	}

	fmt.Printf("op: %s (closed loop, one op at a time, a fresh process per op)\n",
		strings.Join(b.w.command("bin", "perfbench", "<input>"), " "))
	describe("throughput_mb_s", "MB/s", tp, "")
	describe("peak_rss_mb", "MiB", rss, "")
	describe("cpu_s_per_gb", "s/GB", cpu, "")
	describe("setup_s", "s", setups, fmt.Sprintf(" (%d setups)", len(setups)))
	fmt.Printf("metric %-32s %12.4f %-6s (%d of %d ops failed)\n", "failed_frac",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	tailV := 0.0
	if b.w.kind == "live" {
		describe("snapshot_ms_p50", "ms", snaps, " (snapshots)")
		if t, ok := tailPercentile(snaps); ok {
			tailV = t.Value
			fmt.Printf("metric %-32s %12.4f %-6s at p%g, %d of %d samples beyond\n",
				"snapshot_ms_tail", t.Value, "ms", t.Percentile, t.Beyond, t.Samples)
		} else {
			fmt.Printf("metric %-32s n/a (%d samples, fewer than %d beyond any ladder percentile)\n",
				"snapshot_ms_tail", t.Samples, minBeyond)
		}
	}
	if b.w.kind == "shard" {
		fmt.Printf("metric %-32s %12.4f %-6s (sketch bytes the %d map processes ship per op)\n",
			"shipped_mb", float64(b.summary.ShippedBytes)/(1<<20), "MiB", shardCount)
	}

	if !b.trace {
		for _, m := range endToEnd {
			var xs []float64
			switch m.name {
			case "throughput_mb_s":
				xs = tp
			case "peak_rss_mb":
				xs = rss
			case "cpu_s_per_gb":
				xs = cpu
			case "setup_s":
				xs = setups
			}
			res.Metrics[m.name] = value{finite(median(xs)), m.unit}
		}
	} else {
		layers := map[string][]float64{}
		for _, o := range traced {
			for _, m := range perLayer {
				layers[m.name] = append(layers[m.name], o.layers[m.name])
			}
		}
		untracedTP, tracedMed := median(tp), median(tracedTP)
		for _, m := range perLayer {
			v := median(layers[m.name])
			switch m.name {
			case "live.snapshot_ms_p50":
				v = 0
				if len(snaps) > 0 {
					v = median(snaps)
				}
			case "live.snapshot_ms_tail":
				v = tailV
			case "trace.throughput_mb_s":
				v = tracedMed
			case "trace.untraced_throughput_mb_s":
				v = untracedTP
			case "trace.overhead_frac":
				v = 1 - tracedMed/untracedTP
			}
			v = finite(v)
			note := ""
			if strings.HasPrefix(m.doc, "derived") {
				note = " (derived)"
			}
			fmt.Printf("layer  %-32s %14.4f %-6s%s\n", m.name, v, m.unit, note)
			res.Metrics[m.name] = value{v, m.unit}
		}
		fmt.Printf("trace overhead: throughput_mb_s traced %.4f vs untraced %.4f MB/s (%.1f%% lower traced)\n",
			tracedMed, untracedTP, 100*(1-tracedMed/untracedTP))
	}
	if len(b.problems) > 0 {
		res.Correct = false
	}
	line, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(line))
	return err
}
