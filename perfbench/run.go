package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose input and reference digests are
// committed in digests.json.
const defaultSeed = 1

// setupReps is how many times a run sets up; setup_s is their median.
// Every repetition regenerates the input and the reference and must
// reproduce the first one's bytes.
const setupReps = 3

// opTimeout bounds one child process; a run must end within 180 s.
const opTimeout = 120 * time.Second

//go:embed digests.json
var digestsJSON []byte

// digests maps a workload to the sha256 of its default-seed input and
// reference schema.
type digests map[string]struct {
	Input     string `json:"input_sha256"`
	Reference string `json:"reference_sha256"`
}

// bench is one run's state.
type bench struct {
	w        *workload
	seed     int64
	trace    bool
	root     string // checkout root; children run here
	bin      string // jxplain and jxshard binaries
	helper   string // this binary
	dir      string // the run's scratch directory, removed at exit
	env      []string
	input    string
	inBytes  int64
	ref      []byte
	summary  refSummary
	problems []string // failed run-level correctness checks
	spans    []Span   // every traced op's spans, written once at the end
}

// proc is one finished child process as the kernel accounted it.
type proc struct {
	wall  time.Duration
	rssKB int64   // ru_maxrss of the child and its reaped descendants
	cpu   float64 // user+sys seconds of the child and its reaped descendants
}

// opResult is one op of the timed loop.
type opResult struct {
	proc
	id        int
	traced    bool
	ok        bool
	snapshots []float64          // live ops: Finish+Simplify latencies, ms
	layers    map[string]float64 // traced ops
}

func cmdRun(args []string) error {
	fset := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: events, distinct, shard or live")
	seed := fset.Int64("seed", defaultSeed, "input generation seed")
	seconds := fset.Int("seconds", 12, "length of the timed loop")
	traceFlag := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work := os.Getenv("PERFBENCH_WORK")
	if work == "" {
		work = filepath.Join(root, ".bench_build")
	}
	helper, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return err
	}
	b := &bench{
		w: w, seed: *seed, trace: *traceFlag == 1,
		root: root, bin: filepath.Join(work, "bin"), helper: helper, dir: dir,
		env:   append(os.Environ(), "TMPDIR="+filepath.Join(dir, "tmp")),
		input: filepath.Join(dir, "input.jsonl"),
	}

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, b.seed, *seconds, *traceFlag)
	fmt.Printf("env: %s\n", envStamp(root))
	setups, err := b.setup()
	if err != nil {
		return err
	}
	b.checkDigests()
	// Flush the generated files' dirty pages now, so that writeback does
	// not compete with the timed ops.
	syscall.Sync()
	if err := b.preflight(); err != nil {
		return err
	}
	ops := b.loop(time.Duration(*seconds) * time.Second)
	if b.trace {
		if err := b.writeTrace(ops, work); err != nil {
			return err
		}
	}
	return b.report(ops, setups)
}

// child runs argv from the checkout root with stdout captured, in its own
// process group so that a timeout kills its descendants too.
func (b *bench) child(argv []string, stdout io.Writer) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = b.root
	cmd.Env = b.env
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	start := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.rssKB = ru.Maxrss
			p.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		}
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 2000 {
			msg = msg[len(msg)-2000:]
		}
		return p, fmt.Errorf("%s %s: %w: %s", filepath.Base(argv[0]), argv[1], err, msg)
	}
	return p, nil
}

// setup builds the program, generates the input and computes the
// reference, setupReps times, and returns each repetition's duration.
// Repetitions after the first write beside the first one's files and
// must reproduce them byte for byte.
func (b *bench) setup() ([]float64, error) {
	var times []float64
	refPath := filepath.Join(b.dir, "reference.native")
	for rep := 0; rep < setupReps; rep++ {
		in, ref := b.input, refPath
		if rep > 0 {
			in, ref = in+".rep", ref+".rep"
		}
		start := time.Now()
		if _, err := b.child([]string{"go", "build", "-o", b.bin + string(filepath.Separator),
			"./cmd/jxplain", "./cmd/jxshard"}, io.Discard); err != nil {
			return nil, err
		}
		if _, err := b.child([]string{b.helper, "gen", "-workload", b.w.name,
			"-seed", fmt.Sprint(b.seed), "-o", in}, io.Discard); err != nil {
			return nil, err
		}
		var out bytes.Buffer
		if _, err := b.child([]string{b.helper, "ref", "-workload", b.w.name, "-in", in, "-o", ref}, &out); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep == 0 {
			if err := json.Unmarshal(out.Bytes(), &b.summary); err != nil {
				return nil, fmt.Errorf("reading reference summary: %w", err)
			}
			continue
		}
		for _, pair := range [][2]string{{b.input, in}, {refPath, ref}} {
			if !sameFile(pair[0], pair[1]) {
				b.fail("setup repetition %d produced a different %s", rep+1, filepath.Base(pair[0]))
			}
			os.Remove(pair[1])
		}
	}
	var err error
	if b.ref, err = os.ReadFile(refPath); err != nil {
		return nil, err
	}
	info, err := os.Stat(b.input)
	if err != nil {
		return nil, err
	}
	b.inBytes = info.Size()
	fmt.Printf("input: %d records, %.1f MB, %d distinct types; sha256 %s\n",
		b.summary.Records, float64(b.inBytes)/1e6, b.summary.Distinct, fileDigest(b.input))
	fmt.Printf("reference: sequential in-process pipeline, %d bytes native; sha256 %s\n",
		len(b.ref), digest(b.ref))
	return times, nil
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Println("check failed:", msg)
}

// checkDigests compares the default seed's input and reference with the
// committed digests.
func (b *bench) checkDigests() {
	if b.seed != defaultSeed {
		fmt.Println("digests: not committed for this seed")
		return
	}
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		b.fail("digests.json: %v", err)
		return
	}
	want, ok := d[b.w.name]
	switch {
	case !ok:
		b.fail("digests.json has no entry for %s", b.w.name)
	case want.Input != fileDigest(b.input):
		b.fail("input differs from the committed digest")
	case want.Reference != digest(b.ref):
		b.fail("reference schema differs from the committed digest")
	default:
		fmt.Println("digests: input and reference match the committed default-seed digests")
	}
}

// preflight runs one untimed op as a warm-up (page cache, binaries) and,
// on shard, checks that jxplain on the same file is byte-identical.
func (b *bench) preflight() error {
	if b.w.kind == "shard" {
		var out bytes.Buffer
		argv := []string{filepath.Join(b.bin, "jxplain"), "-jsonl", "-format", "native", b.input}
		if _, err := b.child(argv, &out); err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), b.ref) {
			b.fail("jxplain output on the shard input differs from the reference")
		}
	}
	if r := b.untraced(0); !r.ok {
		b.fail("warm-up op failed")
	}
	return nil
}

// loop runs ops back to back until d has passed (closed loop, one op at a
// time). A traced run alternates untraced and traced ops.
func (b *bench) loop(d time.Duration) []opResult {
	var ops []opResult
	deadline := time.Now().Add(d)
	untraced, traced := 0, 0
	for id := 1; ; id++ {
		enough := untraced > 0 && (!b.trace || traced > 0)
		if enough && time.Now().After(deadline) {
			return ops
		}
		var r opResult
		if b.trace && id%2 == 0 {
			r = b.tracedOp(id)
			traced++
		} else {
			r = b.untraced(id)
			untraced++
		}
		ops = append(ops, r)
	}
}

// untraced runs the workload's op as a user runs it and checks its
// output against the reference.
func (b *bench) untraced(id int) opResult {
	r := opResult{id: id}
	argv := b.w.command(b.bin, b.helper, b.input)
	out := filepath.Join(b.dir, "op.native")
	if b.w.kind == "live" {
		argv = append(argv, "-o", out)
	}
	var stdout bytes.Buffer
	p, err := b.child(argv, &stdout)
	r.proc = p
	if err != nil {
		fmt.Println("op failed:", err)
		return r
	}
	got := stdout.Bytes()
	if b.w.kind == "live" {
		var res liveResult
		if err := json.Unmarshal(got, &res); err != nil {
			fmt.Println("op failed: reading live result:", err)
			return r
		}
		r.snapshots = res.SnapshotsMS
		if got, err = os.ReadFile(out); err != nil {
			fmt.Println("op failed:", err)
			return r
		}
		os.Remove(out)
	}
	r.ok = bytes.Equal(got, b.ref)
	if !r.ok {
		fmt.Printf("op %d failed: output differs from the reference\n", id)
	}
	return r
}

// tracedOp runs one traced op and derives its per-layer metrics.
func (b *bench) tracedOp(id int) opResult {
	r := opResult{id: id, traced: true}
	out := filepath.Join(b.dir, "traced.native")
	spans := filepath.Join(b.dir, fmt.Sprintf("op%d.spans.json", id))
	p, err := b.child([]string{b.helper, "trace", "-workload", b.w.name, "-in", b.input,
		"-o", out, "-spans", spans, "-op", fmt.Sprint(id)}, io.Discard)
	r.proc = p
	if err != nil {
		fmt.Println("traced op failed:", err)
		return r
	}
	got, err := os.ReadFile(out)
	if err != nil {
		fmt.Println("traced op failed:", err)
		return r
	}
	t, err := readTrace(spans)
	if err != nil {
		fmt.Println("traced op failed:", err)
		return r
	}
	r.layers = layerMetrics(t, b.inBytes)
	r.layers["trace.throughput_mb_s"] = float64(b.inBytes) / 1e6 / p.wall.Seconds()
	b.spans = append(b.spans, t.Spans...)
	r.ok = bytes.Equal(got, b.ref)
	if !r.ok {
		fmt.Printf("traced op %d failed: output differs from the reference\n", id)
	}
	return r
}

func readTrace(path string) (opTrace, error) {
	var t opTrace
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &t)
	}
	return t, err
}

// writeTrace writes every traced op's spans, once, when the run ends.
func (b *bench) writeTrace(ops []opResult, work string) error {
	dir := filepath.Join(work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	data, err := json.Marshal(map[string]any{
		"workload": b.w.name, "seed": b.seed, "input_bytes": b.inBytes, "spans": b.spans,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if rel, err := filepath.Rel(b.root, path); err == nil {
		path = rel
	}
	fmt.Printf("trace: %d spans of %d traced ops in %s\n", len(b.spans), countTraced(ops), path)
	return nil
}

func countTraced(ops []opResult) int {
	n := 0
	for _, o := range ops {
		if o.traced {
			n++
		}
	}
	return n
}

// envStamp describes where the numbers were measured.
func envStamp(root string) string {
	commit := "none (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	goVersion := runtime.Version()
	if out, err := exec.Command("go", "version").Output(); err == nil {
		goVersion = strings.TrimSpace(string(out))
	}
	stamp, _ := json.Marshal(map[string]any{
		"commit":         commit,
		"source_sha256":  sourceDigest(root),
		"go":             goVersion,
		"cpu":            cpuModel(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"gomaxprocs_env": os.Getenv("GOMAXPROCS"),
	})
	return string(stamp)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, which
// stands in for a commit id where the checkout is not a git repository.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func fileDigest(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unreadable: " + err.Error()
	}
	return digest(data)
}

func sameFile(a, b string) bool {
	x, errA := os.ReadFile(a)
	y, errB := os.ReadFile(b)
	return errors.Join(errA, errB) == nil && bytes.Equal(x, y)
}
