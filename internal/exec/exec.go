// Package exec is the paper's primary contribution: the adaptive execution
// framework (§III). Queries always start in the bytecode interpreter on
// all workers; the engine tracks per-pipeline progress at morsel
// boundaries, extrapolates the remaining duration of every execution mode
// (Fig. 7), and switches pipelines to unoptimized or optimized compiled
// code mid-flight by swapping the function handle's variant (Fig. 5) — no
// work is lost because all tiers execute identical semantics over the
// same runtime state (§IV-E).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/rt/sink"
	"aqe/internal/sched"
	"aqe/internal/storage"
	"aqe/internal/vm"
)

// Mode selects how a query executes.
type Mode int

// Execution modes (§V compares the three static modes against adaptive).
// ModeAdaptive, the zero Mode, starts every pipeline in the bytecode
// interpreter and lets the controller pick its tier from measured
// progress. ModeIRInterp directly interprets the SSA graph — the paper's
// "LLVM IR" interpreter baseline of Fig. 2, far slower than the bytecode
// VM. ModeNative statically pins every pipeline to the copy-and-patch
// machine-code tier (falling back per-pipeline to optimized closures when
// the platform or a function is unsupported). ModeVector statically pins
// every pipeline to the morsel-driven vectorized engine (falling back
// per-pipeline to optimized closures when a pipeline has no vector plan).
const (
	ModeAdaptive Mode = iota
	ModeBytecode
	ModeUnoptimized
	ModeOptimized
	ModeIRInterp
	ModeNative
	ModeVector
	numModes
)

var modeNames = [numModes]string{"adaptive", "bytecode", "unoptimized", "optimized", "ir-interp", "native", "vector"}

func (m Mode) String() string { return modeNames[m] }

// ParseMode is the inverse of Mode.String.
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if name == s {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want one of %s)", s, strings.Join(modeNames[:], "|"))
}

// Options configures an Engine.
type Options struct {
	// Workers is the maximum number of pool workers granted to one query
	// at a time — its slot count and local-arena count (default 4). The
	// engine no longer spawns this many goroutines per query; morsels run
	// on the shared pool (PoolWorkers).
	Workers int
	// PoolWorkers sizes the engine's shared morsel-execution pool. Every
	// in-flight query's morsels and breaker-finalize partitions are
	// dispatched over these workers with morsel-granular round-robin
	// fairness (default GOMAXPROCS).
	PoolWorkers int
	// MaxConcurrent caps concurrently admitted queries; arrivals beyond
	// the cap wait in a FIFO admission queue and report the wait in
	// Stats.WaitTime (default 8).
	MaxConcurrent int
	// MaxConcurrentPerTenant additionally caps concurrently admitted
	// queries per tenant (0 = no per-tenant cap): a tenant at its quota
	// queues even while global capacity is free, and never blocks other
	// tenants' admissions behind it.
	MaxConcurrentPerTenant int
	// TenantWeights assigns fair-share weights for pool-worker picking
	// (default 1 per tenant): under contention a tenant's morsels receive
	// workers in proportion to its weight.
	TenantWeights map[string]int
	// Mode is the execution mode (the zero value is ModeAdaptive).
	Mode Mode
	// Cost is the compile-cost model (default Native(); Paper() imposes
	// the paper's LLVM compile latencies).
	Cost *CostModel
	// Trace enables per-morsel trace recording.
	Trace bool
	// VM configures the bytecode translator (register allocation
	// strategy, fusion) for ablation experiments.
	VM vm.Options
	// MorselSize overrides the initial morsel size (default 2048).
	MorselSize int64
	// MorselCap bounds the grown morsel size (default 65536 tuples). A
	// morsel is the unit of preemption: under concurrent load no query
	// waits for the pool longer than one in-flight morsel, so a service
	// tuned for tail latency lowers the cap.
	MorselCap int64
	// MorselGrowEvery is the claim cadence of geometric morsel growth:
	// the morsel size doubles every MorselGrowEvery claims until it
	// reaches MorselCap (default 8).
	MorselGrowEvery int64
	// CacheBytes is the byte budget of the plan-fingerprint compilation
	// cache that lets repeated queries skip translation and start in the
	// best previously compiled tier. 0 selects the default (64 MiB); a
	// negative value disables caching (every query translates and
	// compiles from scratch, the paper's experiment setup).
	CacheBytes int64
	// CompileWorkers bounds concurrent background compilations across all
	// queries on this engine (default 2). The adaptive controller submits
	// to this shared pool instead of spawning per-query goroutines.
	CompileWorkers int
	// ReplanThreshold is the misestimate factor max(est/obs, obs/est) of
	// an observed build-side cardinality past which a query running with
	// a Replanner reoptimizes its join order mid-flight (default 8).
	// Values <= 1 replan at every breaker whose order the corrected
	// estimates change — the force-trigger mode of the invariance oracle.
	ReplanThreshold float64
	// MaxReplans caps how many times one query may restart on a revised
	// plan (default 2): greedy ordering under exact observed
	// cardinalities is deterministic, so the budget is a backstop, not
	// the convergence argument.
	MaxReplans int
}

// Engine executes plans.
type Engine struct {
	opts  Options
	reg   *rt.Registry
	cache *planCache       // nil when CacheBytes < 0
	pool  *compilePool     // shared background compile service
	sched *sched.Scheduler // admission gate + shared morsel worker pool

	// morselHook, when set (tests only), runs after every dispatched
	// morsel on the worker goroutine; the mode-switch stress test uses it
	// to force tier changes at every morsel boundary.
	morselHook func(pipeline int, h *Handle, worker int)
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Cost == nil {
		opts.Cost = Native()
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.MorselSize <= 0 {
		opts.MorselSize = 2048
	}
	if opts.MorselCap <= 0 {
		opts.MorselCap = 65536
	}
	if opts.MorselCap < opts.MorselSize {
		opts.MorselCap = opts.MorselSize
	}
	if opts.MorselGrowEvery <= 0 {
		opts.MorselGrowEvery = 8
	}
	if opts.CompileWorkers <= 0 {
		opts.CompileWorkers = 2
	}
	if opts.PoolWorkers <= 0 {
		opts.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 8
	}
	e := &Engine{opts: opts, reg: rt.NewRegistry(),
		pool: newCompilePool(opts.CompileWorkers),
		sched: sched.New(sched.Options{PoolWorkers: opts.PoolWorkers,
			MaxQueries:   opts.MaxConcurrent,
			MaxPerTenant: opts.MaxConcurrentPerTenant,
			Weights:      opts.TenantWeights})}
	if opts.CacheBytes > 0 {
		e.cache = newPlanCache(opts.CacheBytes)
	}
	rt.RegisterBuiltins(e.reg)
	e.reg.Register("pipeline_run", func(ctx *rt.Ctx, args []uint64) uint64 {
		qr := ctx.Query.(*rt.QueryState).Eng.(*queryRun)
		qr.runPipeline(int(args[0]))
		return 0
	})
	return e
}

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// CacheStats snapshots the compilation-cache counters (zero value when
// caching is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// SchedStats snapshots the scheduler's admission counters: how many
// queries were admitted, how many had to queue, and the accumulated wait.
func (e *Engine) SchedStats() sched.Stats { return e.sched.AdmissionStats() }

// Stats describes one executed stage (the last stage's stats are the
// query's).
type Stats struct {
	Codegen   time.Duration // plan -> IR
	Translate time.Duration // IR -> bytecode (all pipelines + queryStart)
	Compile   time.Duration // up-front compilation (static modes)
	Exec      time.Duration // queryStart + pipelines + result decode
	Finalize  time.Duration // pipeline-breaker wall time (within Exec)
	PruneTime time.Duration // zone-map mask construction (within Exec)
	WaitTime  time.Duration // admission-queue wait before any work (within Total)
	Total     time.Duration

	// Queued reports that the query waited in the admission queue;
	// Cancelled that it ended early through its context (the Result then
	// carries stats only, no rows).
	Queued    bool
	Cancelled bool

	Instrs       int // IR instructions in the module
	Pipelines    int
	FinalLevels  []Level // per pipeline, the tier that finished it
	Compilations int     // adaptive compilations launched, warm native fills included
	RegFileBytes int     // largest bytecode register file
	FusedOps     int     // macro-ops fused across pipelines (§IV-F)
	Finalizes    int     // pipeline breakers finalized
	// Replans counts mid-query restarts on a reoptimized join order;
	// EstCardErr is the worst misestimate factor max(est/obs, obs/est)
	// observed at any join-build breaker (0 = no estimated joins ran).
	Replans    int
	EstCardErr float64

	// Native-tier counters: assemblies that produced machine code,
	// morsels dispatched to native code, and per-pipeline fallbacks to a
	// closure tier (unsupported op/platform or exec-memory failure).
	NativeCompiles  int64
	NativeMorsels   int64
	NativeFallbacks int64

	// Vectorized-engine counters: morsels dispatched to the vectorized
	// engine, and engine switches the controller performed mid-pipeline
	// (promotions into the vectorized engine plus demotions back to the
	// compiled tiers).
	VectorMorsels  int64
	EngineSwitches int64

	// Zone-map pruning: blocks/tuples skipped without dispatching, and
	// the total source tuples of scans that carried a prune descriptor
	// (the denominator of the skip rate).
	BlocksPruned   int64
	TuplesPruned   int64
	PrunableTuples int64

	// Dictionary rewrites: string predicates / group keys compiled
	// against dictionary codes (DictHits counts the ones that rewrote;
	// DictRewrites also counts attempts that folded to constants), and
	// blocks pruned by a string conjunct's code-domain zone map.
	DictRewrites       int
	DictHits           int
	StringBlocksPruned int64

	// Fingerprint is the plan fingerprint (abbreviated hex); CacheHit
	// reports whether translation/compilation was served from the cache,
	// and Cache snapshots the engine-wide cache counters at completion.
	Fingerprint string
	CacheHit    bool
	Cache       CacheStats

	// Tenant is the identity the query was admitted under ("" when the
	// caller ran outside any tenant).
	Tenant string
}

// Result is a materialized query result.
type Result struct {
	Cols  []string
	Types []expr.Type
	Rows  [][]expr.Datum
	Stats Stats
	Trace *Trace
}

// Format renders a datum for display.
func Format(d expr.Datum, t expr.Type) string {
	switch t.Kind {
	case expr.KFloat:
		return fmt.Sprintf("%.4f", d.F)
	case expr.KDecimal:
		return storage.DecimalString(d.I, t.Scale)
	case expr.KDate:
		return storage.FormatDate(d.I)
	case expr.KString:
		return d.S
	case expr.KChar:
		return string(byte(d.I))
	case expr.KBool:
		if d.I != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%d", d.I)
	}
}

// ToTable materializes the result as a storage table (stage results are
// scanned by later stages this way).
func (r *Result) ToTable(name string) *storage.Table {
	cols := make([]*storage.Column, len(r.Cols))
	for i, cn := range r.Cols {
		var k storage.Kind
		switch r.Types[i].Kind {
		case expr.KDecimal:
			k = storage.Decimal
		case expr.KDate:
			k = storage.Date
		case expr.KFloat:
			k = storage.Float64
		case expr.KChar:
			k = storage.Char
		case expr.KString:
			k = storage.String
		default:
			k = storage.Int64
		}
		cols[i] = storage.NewColumn(cn, k)
		cols[i].Scale = r.Types[i].Scale
	}
	for _, row := range r.Rows {
		for i, d := range row {
			switch cols[i].Kind {
			case storage.Float64:
				cols[i].AppendFloat64(d.F)
			case storage.Char:
				cols[i].AppendChar(byte(d.I))
			case storage.String:
				cols[i].AppendString(d.S)
			default:
				cols[i].AppendInt64(d.I)
			}
		}
	}
	return storage.NewTable(name, cols...)
}

// Run executes a multi-stage query: every stage materializes into a table
// visible to later stages; the final stage's rows are the result.
func (e *Engine) Run(q plan.Query) (*Result, error) {
	return e.RunCtx(context.Background(), q)
}

// RunCtx is Run with per-query cancellation and deadline: ctx is checked
// between stages and, inside each stage, at every morsel boundary and
// finalize partition.
func (e *Engine) RunCtx(ctx context.Context, q plan.Query) (*Result, error) {
	return e.RunCtxOpts(ctx, q, RunOpts{})
}

// RunCtxOpts is RunCtx under per-execution options; every stage admits
// and schedules under opts.Tenant. Multi-stage plan queries carry no
// prepared-statement parameters, so opts.Params must be nil.
func (e *Engine) RunCtxOpts(ctx context.Context, q plan.Query, opts RunOpts) (*Result, error) {
	prior := make(map[string]*storage.Table)
	var last *Result
	for i, st := range q.Stages {
		node := st.Build(prior)
		res, err := e.RunPlanOpts(ctx, node, fmt.Sprintf("%s/%s", q.Name, st.Name), opts)
		if err != nil {
			return res, fmt.Errorf("%s stage %q: %w", q.Name, st.Name, err)
		}
		if i < len(q.Stages)-1 {
			prior[st.Name] = res.ToTable(st.Name)
		}
		last = res
	}
	return last, nil
}

// RunPlan code-generates and executes a single plan.
func (e *Engine) RunPlan(node plan.Node, name string) (*Result, error) {
	return e.RunPlanCtx(context.Background(), node, name)
}

// RunPlanCtx code-generates and executes a single plan under ctx. The
// query first passes the engine's admission gate (FIFO, capped at
// MaxConcurrent in-flight queries); its morsels then run on the shared
// worker pool. Cancelling ctx — or hitting its deadline — stops the query
// within one morsel per granted worker; the error wraps the context cause
// and the returned Result carries the stats (Cancelled, WaitTime) but no
// rows.
func (e *Engine) RunPlanCtx(ctx context.Context, node plan.Node, name string) (*Result, error) {
	return e.RunPlanReplan(ctx, node, name, nil)
}

// RunPlanReplan is RunPlanCtx with mid-query reoptimization: after every
// join-build breaker the engine reports the observed cardinality to rp
// and, past the misestimate threshold, restarts the query on the revised
// plan rp returns (hash tables rebuilt from base tables; observations and
// the admission slot kept). A nil rp runs the plan as given.
func (e *Engine) RunPlanReplan(ctx context.Context, node plan.Node, name string, rp Replanner) (*Result, error) {
	return e.RunPlanOpts(ctx, node, name, RunOpts{Replan: rp})
}

// RunOpts carries the per-execution inputs of RunPlanOpts that are not
// part of the plan itself.
type RunOpts struct {
	// Tenant is the identity the query is admitted and scheduled under:
	// it counts against the tenant's MaxConcurrentPerTenant quota, its
	// pool workers are granted by fair-share weight, and the per-tenant
	// admission counters are charged to it. "" runs outside any tenant.
	Tenant string
	// Params are the bound values of the plan's prepared-statement
	// parameters, by index ($1 = Params[0]). Required exactly when the
	// plan contains expr.Param nodes; counts and types must match.
	Params []*expr.Const
	// Replan enables mid-query reoptimization (see RunPlanReplan).
	Replan Replanner
}

// RunPlanOpts is the fully-general single-plan entry point: RunPlanCtx
// plus tenant identity, prepared-statement parameter bindings, and
// mid-query reoptimization.
func (e *Engine) RunPlanOpts(ctx context.Context, node plan.Node, name string, opts RunOpts) (*Result, error) {
	rp := opts.Replan
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return &Result{Stats: Stats{Cancelled: true}},
			fmt.Errorf("exec: query %q cancelled: %w", name, context.Cause(ctx))
	}
	var tr *Trace
	if e.opts.Trace {
		tr = NewTrace()
	}
	wait, queued, err := e.sched.AdmitTenant(ctx, opts.Tenant)
	if err != nil {
		st := Stats{WaitTime: wait, Queued: queued, Cancelled: true,
			Tenant: opts.Tenant, Total: time.Since(t0)}
		return &Result{Stats: st},
			fmt.Errorf("exec: query %q cancelled while queued (waited %v): %w", name, wait, err)
	}
	defer e.sched.ReleaseTenant(opts.Tenant)
	var st Stats
	st.WaitTime, st.Queued, st.Tenant = wait, queued, opts.Tenant
	if tr != nil && queued {
		tr.Add(Event{Kind: EvAdmit, Pipeline: -1, Worker: -1, Label: name,
			Start: 0, End: tr.Since(time.Now())})
	}
	var ro *reoptState
	if rp != nil {
		threshold := e.opts.ReplanThreshold
		if threshold == 0 {
			threshold = DefaultReplanThreshold
		}
		max := e.opts.MaxReplans
		if max <= 0 {
			max = DefaultMaxReplans
		}
		ro = &reoptState{rp: rp, threshold: threshold, remaining: max}
	}

	cancelled := func(cause error) (*Result, error) {
		st.Cancelled = true
		st.Total = time.Since(t0)
		return &Result{Stats: st},
			fmt.Errorf("exec: query %q cancelled: %w", name, cause)
	}

	// Each iteration is one execution attempt; a replanSignal from the
	// breaker hook restarts the loop on the revised plan. Durations
	// (Codegen/Translate/Exec/...) accumulate across attempts — they are
	// real work this query performed; structural fields (Instrs,
	// Pipelines, Fingerprint) describe the attempt that completed.
	var qr *queryRun
	var cq *codegen.Query
	var rows [][]expr.Datum
	for {
		if err := ctx.Err(); err != nil {
			return cancelled(context.Cause(ctx))
		}
		tCg := time.Now()
		mem := rt.NewMemory()
		cq, err = codegen.Compile(node, mem, name)
		if err != nil {
			return nil, err
		}
		st.Codegen += time.Since(tCg)
		st.Instrs = cq.Module.NumInstrs()
		st.Pipelines = len(cq.Pipelines)
		st.DictRewrites = cq.DictRewrites
		st.DictHits = cq.DictHits
		// Install the parameter bindings into this attempt's parameter
		// segment. Codegen (and thus binding) reruns on every execution;
		// only translate/compile/kernels are served from the cache, so a
		// cached plan still reads fresh values through the segment table.
		if len(cq.Params) > 0 || len(opts.Params) > 0 {
			if err := cq.BindParams(opts.Params); err != nil {
				return nil, fmt.Errorf("exec: query %q: %w", name, err)
			}
		}

		qr, err = e.newQueryRun(ctx, cq, mem, &st, tr)
		if err != nil {
			if ctx.Err() != nil {
				return cancelled(err)
			}
			return nil, err
		}
		qr.tenant = opts.Tenant
		qr.reopt = ro
		// The cancellation watcher flips the query's atomic flag the
		// moment ctx dies; every claim loop and finalize partition polls
		// it, and stop() keeps the watcher from outliving the query.
		if ctx.Done() != nil {
			stop := context.AfterFunc(ctx, func() { qr.cancel(context.Cause(ctx)) })
			defer stop()
		}
		tExec := time.Now()
		rows, err = qr.execute()
		st.Exec += time.Since(tExec)
		// Fold the run's tier-6 counters (atomics: a background compile can
		// tick them until the moment of this snapshot). Accumulates across
		// replan attempts like the duration fields above.
		st.NativeCompiles += qr.nativeCompiles.Load()
		st.NativeMorsels += qr.nativeMorsels.Load()
		st.NativeFallbacks += qr.nativeFallbacks.Load()
		st.VectorMorsels += qr.vectorMorsels.Load()
		st.EngineSwitches += qr.engineSwitches.Load()
		if err == nil {
			break
		}
		if rs, ok := err.(*replanSignal); ok {
			st.Replans++
			node = rs.node
			continue
		}
		if qr.cancelled.Load() {
			return cancelled(err)
		}
		return nil, err
	}
	// Sort / limit on the decoded rows. ORDER BY + LIMIT keeps only the
	// top k through a bounded heap instead of a full sort.
	if len(cq.SortKeys) > 0 {
		if cq.Limit >= 0 {
			rows = sink.TopK(rows, cq.SortKeys, cq.Limit)
		} else {
			sink.SortRows(rows, cq.SortKeys)
		}
	}
	if cq.Limit >= 0 && len(rows) > cq.Limit {
		rows = rows[:cq.Limit]
	}
	st.Total = time.Since(t0)
	for _, h := range qr.handles {
		st.FinalLevels = append(st.FinalLevels, h.Level())
	}
	if e.cache != nil {
		st.Cache = e.cache.stats()
	}
	res := &Result{Rows: rows, Stats: st, Trace: qr.trace}
	for _, c := range cq.Schema {
		res.Cols = append(res.Cols, c.Name)
		res.Types = append(res.Types, c.T)
	}
	return res, nil
}
