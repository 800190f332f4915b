package main

import (
	"runtime"
	"time"

	"aqe"
	"aqe/internal/codegen"
	"aqe/internal/exec"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/vector"
	"aqe/internal/vm"
)

// Per-layer measurement for the traced runs. Two sources feed it:
//
//   - layer probes: the benchmark itself calls each compile layer's public
//     function (codegen.Compile, vm.Translate, jit.Compile at all three
//     tiers, vector.Compile) on the plans the workload ran, with a span
//     around every call;
//   - engine counters: the exec.Stats of in-process executions, run stage
//     by stage so every stage's Stats is seen, on a DB opened with the
//     engine's per-morsel trace so morsels can be attributed to tiers.

// probeSpanNames are the spans a layer probe records, by metric.
var probeSpanNames = map[string]string{
	"codegen.us":       "codegen.Compile",
	"vm.translate_us":  "vm.Translate",
	"jit.unopt_us":     "jit.Compile.unoptimized",
	"jit.opt_us":       "jit.Compile.optimized",
	"asm.assemble_us":  "jit.Compile.native",
	"vector.kernel_us": "vector.Compile",
}

// probePlan runs the compile layers on one stage plan under a "probe"
// span of the given trace. Failures of the optional tiers (a pipeline
// the native backend or the vectorized engine cannot take) are not
// errors: the engine falls back the same way.
func probePlan(tr *tracer, trace int64, name string, node plan.Node) error {
	t0 := time.Now()
	root := tr.id()
	mem := rt.NewMemory()
	tc := time.Now()
	cq, err := codegen.Compile(node, mem, name)
	if err != nil {
		return err
	}
	tr.add(trace, root, "codegen.Compile", tc, time.Now(),
		map[string]float64{"instrs": float64(cq.Module.NumInstrs())})
	for _, p := range cq.Pipelines {
		t := time.Now()
		prog, err := vm.Translate(p.Fn, vm.Options{})
		if err != nil {
			return err
		}
		tr.add(trace, root, "vm.Translate", t, time.Now(), nil)
		for _, lv := range []jit.Level{jit.Unoptimized, jit.Optimized, jit.Native} {
			t := time.Now()
			c, err := jit.Compile(p.Fn, lv, prog)
			end := time.Now()
			if err != nil {
				continue
			}
			var attrs map[string]float64
			if lv == jit.Native {
				attrs = map[string]float64{"code_bytes": float64(c.SizeBytes())}
			}
			tr.add(trace, root, "jit.Compile."+lv.String(), t, end, attrs)
		}
		if p.Vec != nil {
			t := time.Now()
			if _, err := vector.Compile(p.Vec); err == nil {
				tr.add(trace, root, "vector.Compile", t, time.Now(), nil)
			}
		}
	}
	tr.record(root, trace, 0, "probe", t0, time.Now(), nil)
	return nil
}

// probeMetrics turns the probe spans into per-statement layer costs: for
// each probe trace (one statement execution's plans), the durations of a
// layer's spans are summed, and the metric is the median over traces.
func probeMetrics(tr *tracer, m map[string]float64) {
	for metric, name := range probeSpanNames {
		m[metric] = medianPerTrace(tr.named(name), func(s span) float64 { return us(s.dur()) })
	}
	m["codegen.instrs"] = medianPerTrace(tr.named("codegen.Compile"), func(s span) float64 { return s.Attrs["instrs"] })
	m["asm.code_bytes"] = medianPerTrace(tr.named("jit.Compile.native"), func(s span) float64 { return s.Attrs["code_bytes"] })
}

// medianPerTrace sums f over the spans of each trace and returns the
// median of the sums (0 without spans).
func medianPerTrace(spans []span, f func(span) float64) float64 {
	sums := map[int64]float64{}
	for _, s := range spans {
		sums[s.Trace] += f(s)
	}
	vals := make([]float64, 0, len(sums))
	for _, v := range sums {
		vals = append(vals, v)
	}
	return median(vals)
}

// engineAgg accumulates the engine's own counters over in-process query
// executions; each query is the list of its stages' results.
type engineAgg struct {
	queries                         int
	execMS, finalizeMS, waitMS      []float64
	compilations, switches          int64
	stages, queued, cacheHits       int
	levels                          [exec.LevelVector + 1]int
	morsels                         [exec.LevelVector + 1]int
	nativeCompiles, nativeFallbacks int64
	tuplesPruned, prunableTuples    int64
	allocBytes, gcCycles            uint64
}

func (a *engineAgg) addQuery(stages []*exec.Result) {
	a.queries++
	var execD, finD, waitD time.Duration
	for _, r := range stages {
		st := r.Stats
		a.stages++
		execD += st.Exec
		finD += st.Finalize
		waitD += st.WaitTime
		a.compilations += int64(st.Compilations)
		a.switches += st.EngineSwitches
		if st.Queued {
			a.queued++
		}
		if st.CacheHit {
			a.cacheHits++
		}
		for _, lv := range st.FinalLevels {
			a.levels[lv]++
		}
		a.nativeCompiles += st.NativeCompiles
		a.nativeFallbacks += st.NativeFallbacks
		a.tuplesPruned += st.TuplesPruned
		a.prunableTuples += st.PrunableTuples
		if r.Trace != nil {
			for _, ev := range r.Trace.Events() {
				if ev.Kind == exec.EvMorsel {
					a.morsels[ev.Level]++
				}
			}
		}
	}
	a.execMS = append(a.execMS, ms(execD))
	a.finalizeMS = append(a.finalizeMS, ms(finD))
	a.waitMS = append(a.waitMS, ms(waitD))
}

// measureRuntime runs fn and charges its heap allocation and GC cycles
// to the aggregate.
func (a *engineAgg) measureRuntime(fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	a.allocBytes += after.TotalAlloc - before.TotalAlloc
	a.gcCycles += uint64(after.NumGC - before.NumGC)
	return err
}

func (a *engineAgg) metrics(m map[string]float64) {
	q := float64(a.queries)
	m["exec.exec_ms"] = mean(a.execMS)
	m["rt.finalize_ms"] = mean(a.finalizeMS)
	m["exec.compilations"] = ratio(float64(a.compilations), q)
	m["exec.engine_switches"] = ratio(float64(a.switches), q)
	m["exec.native_fallback_ratio"] = ratio(float64(a.nativeFallbacks), float64(a.nativeCompiles))
	m["storage.prune_ratio"] = ratio(float64(a.tuplesPruned), float64(a.prunableTuples))
	pipes, morsels := 0, 0
	for i := range a.levels {
		pipes += a.levels[i]
		morsels += a.morsels[i]
	}
	for lv := exec.LevelBytecode; lv <= exec.LevelVector; lv++ {
		name := lv.String()
		if lv == exec.LevelVector {
			name = "vector"
		}
		m["exec.tier_mix."+name] = ratio(float64(a.levels[lv]), float64(pipes))
	}
	m["exec.native_morsel_share"] = ratio(float64(a.morsels[exec.LevelNative]), float64(morsels))
	m["vector.morsel_share"] = ratio(float64(a.morsels[exec.LevelVector]), float64(morsels))
	m["sched.wait_ms"] = mean(a.waitMS)
	m["sched.queued_share"] = ratio(float64(a.queued), float64(a.stages))
	m["exec.cache_hit_ratio"] = ratio(float64(a.cacheHits), float64(a.stages))
	m["runtime.alloc_kb_per_query"] = ratio(float64(a.allocBytes)/1024, q)
	m["runtime.gc_cycles"] = ratio(float64(a.gcCycles)*1000, q)
}

// stageRun is one executed stage of a plan query.
type stageRun struct {
	res        *exec.Result
	start, end time.Time
}

// execStaged runs a plan query stage by stage through the public API,
// materializing each stage for the next exactly as aqe.DB.Exec does, so
// that every stage's Stats (and engine trace) is kept.
func execStaged(db *aqe.DB, q plan.Query) ([]stageRun, error) {
	prior := map[string]*storage.Table{}
	var out []stageRun
	for i, st := range q.Stages {
		t0 := time.Now()
		res, err := db.ExecPlan(st.Build(prior), q.Name+"/"+st.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, stageRun{res: res, start: t0, end: time.Now()})
		if i < len(q.Stages)-1 {
			prior[st.Name] = res.ToTable(st.Name)
		}
	}
	return out, nil
}

// statsSpans lays the phases one engine Stats reports out as child spans
// of parent, in the order the engine runs them: admission wait, code
// generation, bytecode translation, up-front compilation, execution
// (with zone-map pruning at its start and breaker finalization at its
// end). The engine reports durations, not timestamps, so the layout is
// reconstructed; self times computed from it are exact because the
// phases do not overlap.
func statsSpans(tr *tracer, trace, parent int64, start time.Time, st exec.Stats) {
	t := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"sched.admit", st.WaitTime}, {"codegen", st.Codegen}, {"vm.translate", st.Translate},
		{"jit.compile", st.Compile}, {"exec.run", st.Exec},
	} {
		end := t.Add(ph.d)
		id := tr.add(trace, parent, ph.name, t, end, nil)
		if ph.name == "exec.run" {
			tr.add(trace, id, "storage.prune", t, t.Add(st.PruneTime), nil)
			tr.add(trace, id, "rt.finalize", end.Add(-st.Finalize), end, nil)
		}
		t = end
	}
}

// selfTimeTable is the median self time in ms of every span name.
func selfTimeTable(tr *tracer) map[string]float64 {
	names := map[string]bool{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		names[s.Name] = true
	}
	tr.mu.Unlock()
	out := map[string]float64{}
	for name := range names {
		var v []float64
		for _, d := range tr.selfTimes(name) {
			v = append(v, ms(d))
		}
		out[name] = median(v)
	}
	return out
}
