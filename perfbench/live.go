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
	"time"

	"jxplain"
)

// readWindow reads the next n non-blank lines (newline-terminated) from
// br; it returns an empty slice at end of input.
func readWindow(br *bufio.Reader, n int) ([]byte, error) {
	var buf []byte
	for got := 0; got < n; {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			buf = append(buf, line...)
			if line[len(line)-1] != '\n' {
				buf = append(buf, '\n')
			}
			got++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// liveResult is what the live op prints on stdout.
type liveResult struct {
	SnapshotsMS []float64 `json:"snapshots_ms"`
}

// cmdLive is `perfbench live -workload live -in FILE -o FILE`: the
// untraced live op. It feeds the input to the facade's Discoverer one
// window at a time through AddStream with the stream bounds, and takes a
// Finish (which includes Simplify) after every window, timing each. The
// last snapshot's native schema is written to -o, the latencies to
// stdout.
func cmdLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	name := fs.String("workload", "live", "workload name")
	in := fs.String("in", "", "input JSONL file")
	out := fs.String("o", "", "output native schema file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg := discoveryConfig(w)
	opts := jxplain.StreamOptions{
		JSONL:         true,
		Capacity:      cfg.Bounds.ReservoirCapacity,
		WindowRecords: cfg.Bounds.WindowRecords,
		WindowCount:   cfg.Bounds.WindowCount,
		Decay:         cfg.Bounds.DecayFactor,
	}
	cfg.Bounds = jxplain.Bounds{} // AddStream installs them from opts
	d := jxplain.NewDiscoverer(cfg)
	br := bufio.NewReaderSize(f, 1<<16)
	var res liveResult
	var last jxplain.Schema
	for {
		seg, err := readWindow(br, liveWindow)
		if err != nil {
			return err
		}
		if len(seg) == 0 {
			break
		}
		if _, err := d.AddStream(context.Background(), bytes.NewReader(seg), opts); err != nil {
			return err
		}
		start := time.Now()
		last = d.Finish()
		res.SnapshotsMS = append(res.SnapshotsMS, float64(time.Since(start).Nanoseconds())/1e6)
	}
	if last == nil {
		return fmt.Errorf("no records in input")
	}
	data, err := jxplain.MarshalSchema(last)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&res)
}
