// Command aqebench regenerates every table and figure of the paper's
// evaluation (§V): per-experiment workload generation, parameter sweeps,
// baselines, and output in the same rows/series the paper reports.
//
//	aqebench -exp all            # everything at the default scale
//	aqebench -exp fig13 -maxsf 1 # the SF sweep up to SF 1
//
// Experiments: fig2, fig6, fig13, fig14, fig15, table1, table2, regalloc,
// cache, concurrency, joinorder, native, hybrid, service (open-loop
// wire-protocol load with per-tenant fair-share).
package main

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aqe/internal/codegen"
	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/synth"
	"aqe/internal/tpch"
	"aqe/internal/vm"
	"aqe/internal/volcano"
)

// mustCompile code-generates a plan, panicking on codegen bugs (this is a
// benchmark driver).
func mustCompile(node plan.Node, mem *rt.Memory, name string) *codegen.Query {
	cq, err := codegen.Compile(node, mem, name)
	if err != nil {
		panic(err)
	}
	return cq
}

var (
	expFlag   = flag.String("exp", "all", "experiment: fig2|fig6|fig13|fig14|fig15|table1|table2|regalloc|cache|concurrency|joinorder|native|hybrid|service|all")
	sfFlag    = flag.Float64("sf", 0.1, "TPC-H scale factor for single-scale experiments")
	maxSfFlag = flag.Float64("maxsf", 0.3, "largest scale factor of the fig13 sweep")
	workers   = flag.Int("workers", 4, "worker threads")
	cacheFlag = flag.Int64("cache", 64<<20, "plan-cache byte budget for the cache experiment (0 = the 64 MiB default, negative disables)")
	durFlag   = flag.Duration("dur", 1500*time.Millisecond, "measurement window per client count in the concurrency experiment")
	qpsFlag   = flag.Float64("qps", 60, "per-tenant open-loop arrival rate for the service experiment")
)

func main() {
	flag.Parse()
	run := func(name string, fn func()) {
		if *expFlag == "all" || *expFlag == name {
			fmt.Printf("==================== %s ====================\n", name)
			fn()
			fmt.Println()
		}
	}
	run("fig2", fig2)
	run("fig6", fig6)
	run("fig13", fig13)
	run("fig14", fig14)
	run("fig15", fig15)
	run("table1", table1)
	run("table2", table2)
	run("regalloc", regalloc)
	run("cache", cacheExp)
	run("concurrency", concurrency)
	run("joinorder", joinorder)
	run("native", nativeExp)
	run("hybrid", hybridExp)
	run("service", serviceExp)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

var catCache = map[float64]*storage.Catalog{}

func catalog(sf float64) *storage.Catalog {
	if c, ok := catCache[sf]; ok {
		return c
	}
	c := tpch.Gen(sf)
	catCache[sf] = c
	return c
}

// totalTime is planning + codegen + translation + compilation + execution —
// the quantity Fig. 13 plots — with the paper-calibrated compile latency.
func totalTime(q plan.Query, mode exec.Mode, w int, cost *exec.CostModel) (time.Duration, error) {
	e := exec.New(exec.Options{Workers: w, Mode: mode, Cost: cost, CacheBytes: -1})
	t0 := time.Now()
	_, err := e.Run(q)
	return time.Since(t0), err
}

// ---- Fig. 2: compilation vs execution time per mode, TPC-H Q1 ----

func fig2() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H Q1 at SF %.2f, single worker (paper: SF 1)\n", *sfFlag)
	fmt.Printf("%-14s %14s %14s\n", "mode", "compile[ms]", "exec[ms]")
	modes := []struct {
		name string
		mode exec.Mode
		cost *exec.CostModel
	}{
		{"LLVM IR", exec.ModeIRInterp, exec.Native()},
		{"bytecode", exec.ModeBytecode, exec.Native()},
		{"unoptimized", exec.ModeUnoptimized, exec.Paper()},
		{"optimized", exec.ModeOptimized, exec.Paper()},
	}
	for _, m := range modes {
		e := exec.New(exec.Options{Workers: 1, Mode: m.mode, Cost: m.cost, CacheBytes: -1})
		res, err := e.Run(tpch.Query(cat, 1))
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		st := res.Stats
		compile := st.Translate + st.Compile
		if m.mode == exec.ModeIRInterp {
			compile = 0 // no translation step at all
		}
		fmt.Printf("%-14s %14.2f %14.2f\n", m.name, ms(compile), ms(st.Exec))
	}
	fmt.Println("(unoptimized/optimized compile includes the paper-calibrated LLVM latency model)")
}

// ---- Fig. 6: compile time vs instruction count ----

func fig6() {
	cat := catalog(0.01)
	fmt.Printf("%-10s %8s %10s %10s %12s %12s %12s\n",
		"query", "instrs", "bc[ms]", "unopt[ms]", "opt[ms]", "unoptLLVM", "optLLVM")
	model := exec.Paper()
	report := func(name string, node plan.Node) {
		mem := rt.NewMemory()
		cqInstrs, bc, unopt, opt := measureCompile(node, mem, name)
		fmt.Printf("%-10s %8d %10.3f %10.3f %12.3f %12.2f %12.2f\n",
			name, cqInstrs, ms(bc), ms(unopt), ms(opt),
			ms(model.UnoptTime(cqInstrs)), ms(model.OptTime(cqInstrs)))
	}
	for qn := 1; qn <= 22; qn++ {
		q := tpch.Query(cat, qn)
		// Compile the first stage's plan (later stages need prior results).
		node := q.Stages[0].Build(nil)
		report(fmt.Sprintf("Q%d", qn), node)
	}
	// Synthetic plans extend the instruction-count axis (the paper uses
	// TPC-DS for this).
	st := synth.Table(1000)
	for _, n := range []int{25, 50, 100, 200, 400} {
		report(fmt.Sprintf("synth%d", n), synth.WideAggPlan(st, n))
	}
}

// measureCompile code-generates a plan and times the three translators.
func measureCompile(node plan.Node, mem *rt.Memory, name string) (int, time.Duration, time.Duration, time.Duration) {
	cq := mustCompile(node, mem, name)
	instrs := cq.Module.NumInstrs()
	var bc, unopt, opt time.Duration
	for _, pl := range cq.Pipelines {
		t0 := time.Now()
		prog, err := vm.Translate(pl.Fn, vm.Options{})
		if err != nil {
			panic(err)
		}
		bc += time.Since(t0)
		t0 = time.Now()
		if _, err := jit.Compile(pl.Fn, jit.Unoptimized, prog); err != nil {
			panic(err)
		}
		unopt += time.Since(t0)
		t0 = time.Now()
		if _, err := jit.Compile(pl.Fn, jit.Optimized, prog); err != nil {
			panic(err)
		}
		opt += time.Since(t0)
	}
	return instrs, bc, unopt, opt
}

// ---- Fig. 13: SF sweep, geometric mean over all 22 queries ----

func fig13() {
	sfs := []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30}
	modes := []exec.Mode{exec.ModeBytecode, exec.ModeUnoptimized,
		exec.ModeOptimized, exec.ModeAdaptive}
	fmt.Printf("geometric mean over all 22 TPC-H queries, %d workers, paper cost model\n", *workers)
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "SF", "bytecode", "unoptimized", "optimized", "adaptive")
	for _, sf := range sfs {
		if sf > *maxSfFlag {
			break
		}
		cat := catalog(sf)
		fmt.Printf("%-8.2f", sf)
		for _, mode := range modes {
			logSum, n := 0.0, 0
			for qn := 1; qn <= 22; qn++ {
				d, err := totalTime(tpch.Query(cat, qn), mode, *workers, exec.Paper())
				if err != nil {
					fmt.Printf(" ERR(Q%d:%v)", qn, err)
					continue
				}
				logSum += math.Log(ms(d))
				n++
			}
			fmt.Printf(" %12.2f", math.Exp(logSum/float64(n)))
		}
		fmt.Println(" [ms]")
	}
}

// ---- Fig. 14: execution trace of Q11 ----

func fig14() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H Q11 at SF %.2f, 4 workers (paper: SF 1)\n\n", *sfFlag)
	for _, m := range []exec.Mode{exec.ModeBytecode, exec.ModeUnoptimized, exec.ModeAdaptive} {
		e := exec.New(exec.Options{Workers: 4, Mode: m, Cost: exec.Paper(),
			Trace: true, MorselSize: 1024, CacheBytes: -1})
		// Run both stages and merge their traces onto one axis.
		q := tpch.Query(cat, 11)
		prior := map[string]*storage.Table{}
		var merged *exec.Trace
		t0 := time.Now()
		for i, stg := range q.Stages {
			node := stg.Build(prior)
			res, err := e.RunPlan(node, stg.Name)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			if i < len(q.Stages)-1 {
				prior[stg.Name] = res.ToTable(stg.Name)
			}
			if merged == nil {
				merged = res.Trace
			} else {
				merged.Merge(res.Trace)
			}
		}
		fmt.Printf("--- %s: total %.2f ms ---\n", m, ms(time.Since(t0)))
		fmt.Print(merged.Gantt(96))
		fmt.Println()
	}
}

// ---- Fig. 15: compiling very large queries ----

func fig15() {
	st := synth.Table(10000)
	fmt.Printf("%-8s %9s %12s %12s %12s %14s %14s\n",
		"aggs", "instrs", "bc[ms]", "unopt[ms]", "opt[ms]", "unoptLLVM[ms]", "optLLVM[ms]")
	model := exec.Paper()
	for _, n := range []int{10, 50, 100, 200, 400, 800, 1200, 1900} {
		node := synth.WideAggPlan(st, n)
		mem := rt.NewMemory()
		instrs, bc, unopt, opt := measureCompile(node, mem, fmt.Sprintf("wide%d", n))
		fmt.Printf("%-8d %9d %12.2f %12.2f %12.2f %14.1f %14.1f\n",
			n, instrs, ms(bc), ms(unopt), ms(opt),
			ms(model.UnoptTime(instrs)), ms(model.OptTime(instrs)))
	}
	fmt.Println("(optLLVM models the paper's super-linear optimized compilation; bytecode stays linear)")
}

// ---- Table I: planning and compilation times ----

func table1() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H planning/compilation times [ms] at SF %.2f\n", *sfFlag)
	fmt.Printf("%-6s %8s %8s %8s %8s %10s %10s\n",
		"query", "plan", "cdg.", "bc.", "unopt.", "opt.", "instrs")
	type row struct {
		plan, cdg, bc, unopt, opt float64
		instrs                    int
	}
	var maxRow row
	for qn := 1; qn <= 22; qn++ {
		q := tpch.Query(cat, qn)
		t0 := time.Now()
		node := q.Stages[0].Build(nil)
		planT := time.Since(t0)
		mem := rt.NewMemory()
		t0 = time.Now()
		cq := mustCompile(node, mem, q.Name)
		cdgT := time.Since(t0)
		instrs := cq.Module.NumInstrs()
		var bc, unopt, opt time.Duration
		for _, pl := range cq.Pipelines {
			t0 = time.Now()
			prog, _ := vm.Translate(pl.Fn, vm.Options{})
			bc += time.Since(t0)
			t0 = time.Now()
			jit.Compile(pl.Fn, jit.Unoptimized, prog)
			unopt += time.Since(t0)
			t0 = time.Now()
			jit.Compile(pl.Fn, jit.Optimized, prog)
			opt += time.Since(t0)
		}
		model := exec.Paper()
		r := row{ms(planT), ms(cdgT), ms(bc),
			ms(unopt + model.UnoptTime(instrs)), ms(opt + model.OptTime(instrs)), instrs}
		if qn <= 5 {
			fmt.Printf("%-6s %8.3f %8.3f %8.3f %8.1f %10.1f %10d\n",
				fmt.Sprintf("Q%d", qn), r.plan, r.cdg, r.bc, r.unopt, r.opt, r.instrs)
		}
		if r.plan > maxRow.plan {
			maxRow.plan = r.plan
		}
		if r.cdg > maxRow.cdg {
			maxRow.cdg = r.cdg
		}
		if r.bc > maxRow.bc {
			maxRow.bc = r.bc
		}
		if r.unopt > maxRow.unopt {
			maxRow.unopt = r.unopt
		}
		if r.opt > maxRow.opt {
			maxRow.opt = r.opt
		}
	}
	fmt.Printf("%-6s %8.3f %8.3f %8.3f %8.1f %10.1f\n",
		"max", maxRow.plan, maxRow.cdg, maxRow.bc, maxRow.unopt, maxRow.opt)
	fmt.Println("(unopt./opt. include the paper-calibrated LLVM latency model)")
}

// ---- Table II: execution times per engine ----

func table2() {
	cat := catalog(*sfFlag)
	fmt.Printf("TPC-H execution times [ms] at SF %.2f (PG=Volcano stand-in, Monet=column-at-a-time stand-in)\n", *sfFlag)
	fmt.Printf("%-6s %9s %9s | %9s %9s %9s | %9s %9s %9s\n",
		"query", "PG", "Monet", "bc.1", "unopt.1", "opt.1",
		fmt.Sprintf("bc.%d", *workers), fmt.Sprintf("unopt.%d", *workers),
		fmt.Sprintf("opt.%d", *workers))
	native := exec.Native()
	geo := make(map[string][]float64)
	record := func(k string, v float64) { geo[k] = append(geo[k], v) }
	for qn := 1; qn <= 22; qn++ {
		var cells []float64
		// Baselines run the staged plans directly.
		for _, eng := range []string{"pg", "monet"} {
			t0 := time.Now()
			err := runBaseline(cat, qn, eng)
			d := ms(time.Since(t0))
			if err != nil {
				d = math.NaN()
			}
			cells = append(cells, d)
			record(eng, d)
		}
		for _, w := range []int{1, *workers} {
			for _, mode := range []exec.Mode{exec.ModeBytecode, exec.ModeUnoptimized, exec.ModeOptimized} {
				e := exec.New(exec.Options{Workers: w, Mode: mode, Cost: native, CacheBytes: -1})
				res, err := e.Run(tpch.Query(cat, qn))
				d := math.NaN()
				if err == nil {
					d = ms(res.Stats.Exec)
				}
				cells = append(cells, d)
				record(fmt.Sprintf("%s.%d", mode, w), d)
			}
		}
		if qn <= 5 {
			fmt.Printf("%-6s %9.1f %9.1f | %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n",
				fmt.Sprintf("Q%d", qn), cells[0], cells[1], cells[2], cells[3],
				cells[4], cells[5], cells[6], cells[7])
		}
	}
	geoMean := func(vs []float64) float64 {
		s, n := 0.0, 0
		for _, v := range vs {
			if !math.IsNaN(v) && v > 0 {
				s += math.Log(v)
				n++
			}
		}
		return math.Exp(s / float64(n))
	}
	fmt.Printf("%-6s %9.1f %9.1f | %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n", "geo.m.",
		geoMean(geo["pg"]), geoMean(geo["monet"]),
		geoMean(geo["bytecode.1"]), geoMean(geo["unoptimized.1"]), geoMean(geo["optimized.1"]),
		geoMean(geo[fmt.Sprintf("bytecode.%d", *workers)]),
		geoMean(geo[fmt.Sprintf("unoptimized.%d", *workers)]),
		geoMean(geo[fmt.Sprintf("optimized.%d", *workers)]))
}

// runBaseline executes a staged query on a baseline engine: "pg" is the
// tuple-at-a-time Volcano interpreter; "monet" is the morselized
// vectorized engine pinned single-worker (ModeVector), the
// column-at-a-time stand-in.
func runBaseline(cat *storage.Catalog, qn int, eng string) error {
	if eng == "monet" {
		e := exec.New(exec.Options{Workers: 1, Mode: exec.ModeVector, Cost: exec.Native(), CacheBytes: -1})
		_, err := e.Run(tpch.Query(cat, qn))
		return err
	}
	q := tpch.Query(cat, qn)
	prior := map[string]*storage.Table{}
	for i, stg := range q.Stages {
		node := stg.Build(prior)
		var rows [][]expr.Datum
		var err error
		rows, err = volcano.Run(node)
		if err != nil {
			return err
		}
		if i < len(q.Stages)-1 {
			res := &exec.Result{Rows: rows}
			for _, c := range node.Schema() {
				res.Cols = append(res.Cols, c.Name)
				res.Types = append(res.Types, c.T)
			}
			prior[stg.Name] = res.ToTable(stg.Name)
		}
	}
	return nil
}

// ---- §IV-C: register allocation strategies ----

func regalloc() {
	cat := catalog(0.01)
	fmt.Printf("register file size [bytes] per allocation strategy (paper: 36KB / 21KB / 6KB on TPC-DS Q55)\n")
	fmt.Printf("%-10s %9s %10s %10s %10s\n", "query", "instrs", "no-reuse", "window", "loop-aware")
	report := func(name string, node plan.Node) {
		mem := rt.NewMemory()
		cq := mustCompile(node, mem, name)
		sizes := map[vm.Strategy]int{}
		for _, s := range []vm.Strategy{vm.NoReuse, vm.Window, vm.LoopAware} {
			total := 0
			for _, pl := range cq.Pipelines {
				prog, err := vm.Translate(pl.Fn, vm.Options{Strategy: s, WindowSize: 8})
				if err != nil {
					panic(err)
				}
				if prog.RegFileBytes() > total {
					total = prog.RegFileBytes()
				}
			}
			sizes[s] = total
		}
		fmt.Printf("%-10s %9d %10d %10d %10d\n", name, cq.Module.NumInstrs(),
			sizes[vm.NoReuse], sizes[vm.Window], sizes[vm.LoopAware])
	}
	for _, qn := range []int{1, 5, 9, 21} {
		report(fmt.Sprintf("Q%d", qn), tpch.Query(cat, qn).Stages[0].Build(nil))
	}
	st := synth.Table(100)
	for _, n := range []int{100, 400} {
		report(fmt.Sprintf("synth%d", n), synth.WideAggPlan(st, n))
	}
}

// ---- cache: cold vs warm repeated-query latency through the plan cache ----

// cacheExp models the interactive / dashboard workload the compilation cache
// targets: the same query text arrives again and again. Each query runs once
// cold (translate + compile paid) and once warm (served from the
// fingerprint-keyed cache) on the same engine; the cost model is the
// paper-calibrated LLVM latency, so the warm column shows exactly the
// compilation wait the cache removes.
func cacheExp() {
	cat := catalog(*sfFlag)
	fmt.Printf("repeated TPC-H queries at SF %.2f, %d workers, cache budget %d KiB\n",
		*sfFlag, *workers, *cacheFlag>>10)
	queries := []int{1, 3, 5, 6, 12, 14, 19}
	for _, mode := range []exec.Mode{exec.ModeOptimized, exec.ModeAdaptive} {
		e := exec.New(exec.Options{Workers: *workers, Mode: mode,
			Cost: exec.Paper(), CacheBytes: *cacheFlag})
		fmt.Printf("--- %s ---\n", mode)
		fmt.Printf("%-6s %12s %12s %12s %12s %12s %12s %12s %12s\n",
			"query", "c.trans[ms]", "c.comp[ms]", "c.exec[ms]", "c.total[ms]",
			"w.trans[ms]", "w.comp[ms]", "w.exec[ms]", "w.total[ms]")
		var coldTot, warmTot time.Duration
		for _, qn := range queries {
			q := tpch.Query(cat, qn)
			t0 := time.Now()
			cold, err := e.Run(q)
			coldD := time.Since(t0)
			if err != nil {
				fmt.Printf("Q%d: %v\n", qn, err)
				continue
			}
			t0 = time.Now()
			warm, err := e.Run(q)
			warmD := time.Since(t0)
			if err != nil {
				fmt.Printf("Q%d warm: %v\n", qn, err)
				continue
			}
			if !warm.Stats.CacheHit {
				fmt.Printf("Q%d: warm run missed the cache!\n", qn)
			}
			coldTot += coldD
			warmTot += warmD
			fmt.Printf("%-6s %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f\n",
				fmt.Sprintf("Q%d", qn),
				ms(cold.Stats.Translate), ms(cold.Stats.Compile), ms(cold.Stats.Exec), ms(coldD),
				ms(warm.Stats.Translate), ms(warm.Stats.Compile), ms(warm.Stats.Exec), ms(warmD))
		}
		st := e.CacheStats()
		fmt.Printf("total cold %.2f ms, warm %.2f ms (%.1fx); cache: %d entries, %d KiB/%d KiB, %d hits, %d misses, %d evictions\n",
			ms(coldTot), ms(warmTot), ms(coldTot)/ms(warmTot),
			st.Entries, st.Bytes>>10, st.Budget>>10, st.Hits, st.Misses, st.Evictions)
	}
	fmt.Println("(cold pays translation plus the paper-calibrated LLVM latency; warm starts in the best cached tier)")
}

// ---- concurrency: throughput and latency vs concurrent clients ----

// concurrency drives one shared engine with 1..16 closed-loop clients
// cycling through a TPC-H mix and reports throughput, speedup over a
// single client, latency percentiles, and admission-queue behaviour.
//
// The headline series uses optimized mode with the paper's compile-cost
// model and no plan cache, so every query carries its modeled LLVM
// compile latency: that latency is pure waiting, and overlapping it
// across queries is exactly what a shared scheduler buys even on few
// cores. The mix is the short analytic queries whose compile time
// rivals their execution time — the regime §II calls out, where
// compilation dominates end-to-end latency. The second series
// (adaptive, native costs, cache on) shows the steady-state CPU-bound
// regime where throughput is capped by the core count.
func concurrency() {
	cat := catalog(*sfFlag)
	qns := []int{2, 14, 15, 16, 22}
	clientCounts := []int{1, 2, 4, 8, 16}
	const admitCap = 8

	series := []struct {
		name  string
		mode  exec.Mode
		cost  *exec.CostModel
		cache int64
	}{
		{"optimized+paper-compile, cache off", exec.ModeOptimized, exec.Paper(), -1},
		{"adaptive+native, cache on", exec.ModeAdaptive, exec.Native(), 64 << 20},
	}
	for _, s := range series {
		fmt.Printf("%s at SF %.2f, %v per run, pool %d, admission cap %d, queries %v\n",
			s.name, *sfFlag, *durFlag, *workers, admitCap, qns)
		fmt.Printf("%-8s %9s %9s %11s %11s %11s %11s %8s\n",
			"clients", "QPS", "speedup", "mean[ms]", "p50[ms]", "p95[ms]", "wait[ms]", "queued")
		var base float64
		for _, nc := range clientCounts {
			e := exec.New(exec.Options{Workers: 2, PoolWorkers: *workers,
				MaxConcurrent: admitCap, Mode: s.mode, Cost: s.cost, CacheBytes: s.cache})
			var mu sync.Mutex
			var lats []time.Duration
			var measuring atomic.Bool
			var done atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < nc; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						qn := qns[(c+i)%len(qns)]
						t0 := time.Now()
						if _, err := e.Run(tpch.Query(cat, qn)); err != nil {
							panic(err)
						}
						lat := time.Since(t0)
						if measuring.Load() {
							mu.Lock()
							lats = append(lats, lat)
							mu.Unlock()
							done.Add(1)
						}
					}
				}(c)
			}
			// Warm up (catalogs, code caches, steady client overlap), then
			// count only completions inside the measurement window.
			time.Sleep(*durFlag / 3)
			measuring.Store(true)
			time.Sleep(*durFlag)
			measuring.Store(false)
			n64 := done.Load()
			close(stop)
			wg.Wait()

			n := int(n64)
			if n == 0 {
				fmt.Printf("%-8d (no query finished within %v)\n", nc, *durFlag)
				continue
			}
			mu.Lock()
			lats = lats[:n]
			mu.Unlock()
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			var sum time.Duration
			for _, l := range lats {
				sum += l
			}
			qps := float64(n) / durFlag.Seconds()
			if nc == 1 {
				base = qps
			}
			st := e.SchedStats()
			avgWait := time.Duration(0)
			if st.Queued > 0 {
				avgWait = st.WaitTime / time.Duration(st.Queued)
			}
			fmt.Printf("%-8d %9.1f %8.2fx %11.2f %11.2f %11.2f %11.2f %8d\n",
				nc, qps, qps/base, ms(sum/time.Duration(n)), ms(lats[n/2]),
				ms(lats[n*95/100]), ms(avgWait), st.Queued)
		}
		fmt.Println()
	}
	fmt.Println("(closed loop: every client always has one query in flight; speedup is QPS vs 1 client)")
}
