// Command perfbench is the repository's end-to-end update benchmark. It
// runs one seeded workload through the update path — netupdate server and
// v2 client, device in-place apply, version store and chunk tier — checks
// every output, and prints one JSON result line. README.md lists the
// workloads, the metrics and what each metric should move.
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 it
// holds the per-layer metrics of a traced run, and the spans are written
// to DIR/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload runs one workload under cfg.
type workload func(cfg config) (*outcome, error)

var workloads = map[string]workload{
	"serve-warm-4MiB":       runWarm,
	"rollout-records-1MiB":  runRollout,
	"publish-chunked-64MiB": runPublish,
}

// config is what every workload receives.
type config struct {
	seed      int64
	seconds   int
	setupReps int     // set-ups per run; setup_s is their median
	tr        *tracer // nil when untraced
}

func (c config) budget() time.Duration { return time.Duration(c.seconds) * time.Second }

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	problems          []string
	setup             []float64 // seconds per set-up
	ops               []float64 // ms per timed operation
	work              int       // units of work done in the timed operations
	workSeconds       float64   // seconds the timed operations took
	wireBytes         int64     // delta payload bytes of the verified operations
	imageBytes        int64     // new-image bytes of the same operations
	flashWritten      int64     // flash bytes their in-place applies wrote
	peakRSS           float64   // MB, read right after the timed loop
	layers            map[string]float64
}

func newOutcome() *outcome { return &outcome{layers: map[string]float64{}} }

// fail records a failed or mis-verified operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note(fmt.Errorf(format, args...))
}

// note records a failed check; a nil error is a passed one.
func (o *outcome) note(err error) {
	if err != nil && len(o.problems) < 8 {
		o.problems = append(o.problems, err.Error())
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":           {median(o.setup), "s"},
		"op_p50_ms":         {quantile(o.ops, 0.5), "ms"},
		"op_p90_ms":         {quantile(o.ops, 0.9), "ms"},
		"throughput_per_s":  {float64(o.work) / o.workSeconds, "1/s"},
		"wire_pct":          {100 * float64(o.wireBytes) / float64(o.imageBytes), "%"},
		"flash_write_ratio": {float64(o.flashWritten) / float64(o.imageBytes), "ratio"},
		"peak_rss_MB":       {o.peakRSS, "MB"},
	}
}

// layerUnits lists every per-layer metric; a workload whose layer does no
// work reports 0.
var layerUnits = [][2]string{
	{"netupdate.transport_ms", "ms"},
	{"netupdate.cached_session_p90_ms", "ms"},
	{"netupdate.cold_session_p50_ms", "ms"},
	{"netupdate.session_p99_ms", "ms"},
	{"device.apply_ms", "ms"},
	{"device.crc_ms", "ms"},
	{"device.flash_read_ratio", "ratio"},
	{"device.flash_write_ops", "count"},
	{"device.nv_writes", "count"},
	{"diff.build_ms", "ms"},
	{"diff.MBps", "MB/s"},
	{"diff.calls_per_source", "ratio"},
	{"inplace.convert_ms", "ms"},
	{"codec.encode_ms", "ms"},
	{"inplace.cycles_broken", "count"},
	{"inplace.converted_KiB", "KiB"},
	{"inplace.loss_pct", "%"},
	{"inplace.convert_to_diff_pct", "%"},
	{"store.append_ms", "ms"},
	{"chunk.ingest_ms", "ms"},
	{"diff.recipe_ms", "ms"},
	{"store.append_self_ms", "ms"},
	{"store.delta_read_ms", "ms"},
	{"store.version_ms", "ms"},
	{"store.delta_between_ms", "ms"},
	{"chunk.dedup_hit_pct", "%"},
	{"chunk.resident_MB", "MB"},
	{"trace.overhead_pct", "%"},
}

func perLayer(o *outcome) map[string]metric {
	out := map[string]metric{}
	for _, lu := range layerUnits {
		out[lu[0]] = metric{o.layers[lu[0]], lu[1]}
	}
	return out
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the inputs derive from")
	seconds := fs.Int("seconds", 10, "measuring budget in seconds")
	traced := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for trace files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, setupReps: 3}
	var (
		o       *outcome
		err     error
		metrics func(*outcome) map[string]metric
	)
	if *traced == 0 {
		o, err = w(cfg)
		metrics = endToEnd
	} else {
		path := filepath.Join(*outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		o, err = tracedRun(w, cfg, path)
		metrics = perLayer
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics(o),
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun measures the workload untraced and then traced in one process,
// so trace.overhead_pct compares like with like; the per-layer metrics come
// from the traced pass.
func tracedRun(w workload, cfg config, path string) (*outcome, error) {
	cfg.setupReps = 1
	plain, err := w(cfg)
	if err != nil {
		return nil, err
	}
	settle()
	cfg.tr = newTracer()
	o, err := w(cfg)
	if err != nil {
		return nil, err
	}
	o.layers["trace.overhead_pct"] = 100 * (median(o.ops)/median(plain.ops) - 1)
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.problems = append(plain.problems, o.problems...)
	return o, cfg.tr.write(path)
}

// settle collects garbage and returns it to the OS, so one phase's heap
// does not land in the next phase's timings or peak RSS.
func settle() { debug.FreeOSMemory() }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
