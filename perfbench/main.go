// Command perfbench is the repository benchmark: it runs one named
// workload against the aqe engine as users run it, checks every result
// against the volcano reference interpreter, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced run) as
// the last line of standard output. See README.md for the workloads, the
// metrics and the per-layer map; run.sh builds the program and this
// benchmark from source and starts it.
//
//	perfbench --workload adhoc-tpch --seed 1 --seconds 10 --trace 0 -server .bench_build/aqeserver
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is reserved for confirming a performance claim: tune and
// explore on any other seed, then report the claim's numbers on this one.
const heldOutSeed = 20180416

// e2eUnits lists the end-to-end metrics every workload reports in its
// untraced runs (BENCHMARK.json "end_to_end"). The p99 latency is
// reported on the detail line, not here: on a 2-vCPU virtual machine
// with a contended host its spread over ten runs (quartile distance over
// median, 0.30 to 0.51) exceeds the largest bound a gate may use (0.25).
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"peak_rss_mb":    "MB",
	"p50_ms":         "ms",
	"geomean_ms":     "ms",
	"throughput_qps": "1/s",
}

// layerUnits lists the per-layer metrics every workload reports in its
// traced run (BENCHMARK.json "per_layer"). A layer that does no work in
// a workload reads 0 there; README.md maps each metric to the end-to-end
// metric and workload it should move.
var layerUnits = map[string]string{
	"sql.plan_us":                "us",
	"codegen.us":                 "us",
	"codegen.instrs":             "count",
	"exec.cache_hit_ratio":       "ratio",
	"server.nonexec_us":          "us",
	"server.wire_us":             "us",
	"vm.translate_us":            "us",
	"jit.unopt_us":               "us",
	"jit.opt_us":                 "us",
	"asm.assemble_us":            "us",
	"asm.code_bytes":             "bytes",
	"vector.kernel_us":           "us",
	"exec.compilations":          "count",
	"exec.native_fallback_ratio": "ratio",
	"exec.exec_ms":               "ms",
	"exec.tier_mix.bytecode":     "ratio",
	"exec.tier_mix.unoptimized":  "ratio",
	"exec.tier_mix.optimized":    "ratio",
	"exec.tier_mix.native":       "ratio",
	"exec.tier_mix.vector":       "ratio",
	"exec.native_morsel_share":   "ratio",
	"vector.morsel_share":        "ratio",
	"exec.engine_switches":       "count",
	"rt.finalize_ms":             "ms",
	"storage.prune_ratio":        "ratio",
	"sched.wait_ms":              "ms",
	"sched.queued_share":         "ratio",
	"runtime.alloc_kb_per_query": "KiB",
	"runtime.gc_cycles":          "1/kq",
	"tpch.gen_s":                 "s",
	"trace.overhead_pct":         "%",
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // aqeserver binary (point-serve)
	out      string // directory for the traced run's span file
	commit   string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	// invalid explains why the run cannot be trusted even though every
	// operation succeeded (the load generator fell behind its schedule).
	invalid string
	metrics map[string]float64
	detail  map[string]any
	spans   *tracer
}

// sf is the TPC-H scale factor of every workload. It is fixed so that
// every run measures the same data.
const sf = 0.1

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*outcome, error){
	"adhoc-tpch":  runAdhoc,
	"point-serve": runPointServe,
}

// deadline bounds a whole run: a run that overstays it stops its child
// processes and exits without a result.
const deadline = 170 * time.Second

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: adhoc-tpch | point-serve")
	flag.Int64Var(&cfg.seed, "seed", 1, fmt.Sprintf("input seed (%d is held out for confirming claims)", heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "aqeserver binary (point-serve)")
	flag.StringVar(&cfg.out, "out", ".", "directory the traced run writes its spans to")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision being measured")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d)\n", cfg.workload, trace)
		os.Exit(2)
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; stopping\n", deadline)
		stopAllChildren()
		os.Exit(3)
	})
	out, err := run(cfg)
	watchdog.Stop()
	stopAllChildren()
	if err == nil {
		err = report(cfg, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the environment block, the details and, last, the
// result line, after checking the workload produced exactly the metric
// set its mode promises.
func report(cfg config, out *outcome) error {
	units := e2eUnits
	if cfg.trace {
		units = layerUnits
	}
	metrics := map[string]metricValue{}
	for name, unit := range units {
		v, ok := out.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		metrics[name] = metricValue{Value: v, Unit: unit}
	}
	if cfg.trace && out.spans != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := out.spans.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		out.detail["spans_file"] = path
	}
	env := map[string]any{
		"goarch": runtime.GOARCH, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"sf": sf, "seed": cfg.seed, "held_out_seed": cfg.seed == heldOutSeed,
		"commit": cfg.commit, "workload": cfg.workload, "trace": cfg.trace,
		"seconds": cfg.seconds,
	}
	if flags, ok := out.detail["server_flags"]; ok {
		env["server_flags"] = flags
	}
	if out.invalid != "" {
		out.detail["invalid"] = out.invalid
	}
	out.detail["error_rate"] = ratio(float64(out.failed), float64(out.attempted))
	printJSON(map[string]any{"env": env})
	printJSON(map[string]any{"detail": out.detail})
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if out.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	printJSON(map[string]any{
		"correct":   out.failed == 0 && out.invalid == "",
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	return nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed here is a plain map of numbers and strings
	}
	fmt.Println(string(b))
}

// peakRSSMB reads the peak resident set (VmHWM) of a process from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	p := "self"
	if pid != 0 {
		p = strconv.Itoa(pid)
	}
	b, err := os.ReadFile("/proc/" + p + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", p)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
