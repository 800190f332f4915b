package exec

import (
	"sync/atomic"

	"aqe/internal/ir"
	"aqe/internal/ir/interp"
	"aqe/internal/jit"
	"aqe/internal/rt"
	"aqe/internal/vector"
	"aqe/internal/vm"
)

// Level is the execution tier of a worker function.
type Level int32

// Execution tiers, ordered by throughput (Fig. 3). LevelNative is the
// copy-and-patch machine-code tier (tier 6), available only where
// asm.Supported() holds. LevelVector is not a compilation tier of the
// closure family but a different engine: the morsel-driven vectorized
// backend. It sits above LevelNative numerically only so the dispatch
// check is one comparison; the controller treats engine selection
// separately from tier selection.
const (
	LevelBytecode Level = iota
	LevelUnoptimized
	LevelOptimized
	LevelNative
	LevelVector
)

// numLevels sizes per-level arrays such as the plan cache's rate memo.
const numLevels = int(LevelVector) + 1

// jitLevel maps a closure-family tier to its jit compilation level (and
// cachedPipe.compiled slot).
func jitLevel(l Level) jit.Level { return jit.Level(l - LevelUnoptimized) }

func (l Level) String() string {
	switch l {
	case LevelBytecode:
		return "bytecode"
	case LevelUnoptimized:
		return "unoptimized"
	case LevelNative:
		return "native"
	case LevelVector:
		return "vectorized"
	default:
		return "optimized"
	}
}

// Handle is the paper's function handle (Fig. 5): it stores every variant
// of a worker function and dispatches each morsel to the fastest one
// available. Changing the execution mode is a single atomic pointer store;
// all workers pick up the new variant at their next morsel.
type Handle struct {
	Fn     *ir.Function
	Prog   *vm.Program // bytecode, always available
	Instrs int

	// UseIRInterp forces direct SSA interpretation (ModeIRInterp).
	UseIRInterp bool

	compiled  atomic.Pointer[jit.Compiled]
	level     atomic.Int32
	compiling atomic.Bool

	// nativeFailed latches a failed native compilation (unsupported op,
	// exec-memory failure) so the controller stops proposing the tier for
	// this function.
	nativeFailed atomic.Bool

	// vec is the pre-staged vectorized kernel of this pipeline (nil when
	// the pipeline has no vector plan). Installing it is
	// a level flip; the compiled variant stays on the handle so demotion
	// out of the vectorized engine is a level flip back.
	vec       atomic.Pointer[vector.Kernel]
	vecFailed atomic.Bool
}

// NewHandle translates the function to bytecode and wraps it.
func NewHandle(fn *ir.Function, opts vm.Options) (*Handle, error) {
	prog, err := vm.Translate(fn, opts)
	if err != nil {
		return nil, err
	}
	return HandleFor(fn, prog), nil
}

// HandleFor wraps an already-translated program — the compilation cache
// hands out shared Programs this way. Programs and Compiled closures are
// immutable and safe for concurrent use with distinct contexts, so many
// in-flight queries can share them; the Handle itself carries the per-run
// dispatch state (tier, in-flight compile flag).
func HandleFor(fn *ir.Function, prog *vm.Program) *Handle {
	return &Handle{Fn: fn, Prog: prog, Instrs: fn.NumInstrs()}
}

// Level returns the currently installed tier.
func (h *Handle) Level() Level { return Level(h.level.Load()) }

// Compiling reports whether a background compilation is in flight.
func (h *Handle) Compiling() bool { return h.compiling.Load() }

// BeginCompile marks a compilation in flight; returns false if one
// already is.
func (h *Handle) BeginCompile() bool {
	return h.compiling.CompareAndSwap(false, true)
}

// Install publishes a compiled variant; all remaining morsels of the
// pipeline immediately switch to it (§III-B: "Once set, all remaining
// morsels will be processed using the new variant").
func (h *Handle) Install(c *jit.Compiled, l Level) {
	h.compiled.Store(c)
	h.level.Store(int32(l))
	h.compiling.Store(false)
}

// AbortCompile clears the in-flight flag after a failed compilation.
func (h *Handle) AbortCompile() { h.compiling.Store(false) }

// MarkNativeFailed records that native compilation failed for this
// function; NativeFailed gates further attempts.
func (h *Handle) MarkNativeFailed() { h.nativeFailed.Store(true) }

// NativeFailed reports whether a native compilation has failed.
func (h *Handle) NativeFailed() bool { return h.nativeFailed.Load() }

// SetVecKernel pre-stages the vectorized kernel without installing it.
func (h *Handle) SetVecKernel(k *vector.Kernel) { h.vec.Store(k) }

// VecKernel returns the pre-staged vectorized kernel, or nil.
func (h *Handle) VecKernel() *vector.Kernel { return h.vec.Load() }

// InstallVector switches the pipeline's remaining morsels to the
// vectorized engine — the same single atomic publication as Install.
func (h *Handle) InstallVector() {
	h.level.Store(int32(LevelVector))
	h.compiling.Store(false)
}

// DemoteVector switches the pipeline back to the closure-family tier it
// ran before the vectorized engine was installed (the compiled variant is
// still on the handle) and latches the failure so the controller stops
// re-proposing the engine for this pipeline.
func (h *Handle) DemoteVector(l Level) {
	h.vecFailed.Store(true)
	h.level.Store(int32(l))
	h.compiling.Store(false)
}

// MarkVecFailed records that the pipeline cannot (or should not) run on
// the vectorized engine.
func (h *Handle) MarkVecFailed() { h.vecFailed.Store(true) }

// VecFailed reports whether the vectorized engine is latched off.
func (h *Handle) VecFailed() bool { return h.vecFailed.Load() }

// Dispatch runs one morsel with the fastest available variant — the
// paper's per-morsel dispatch code (Fig. 5), extended with the engine
// dimension: a pipeline at LevelVector dispatches to the vectorized
// kernel, everything else to the fastest closure-family variant.
func (h *Handle) Dispatch(ctx *rt.Ctx, args []uint64) {
	if h.UseIRInterp {
		interp.Run(h.Fn, ctx, args)
		return
	}
	if Level(h.level.Load()) == LevelVector {
		if k := h.vec.Load(); k != nil {
			k.Run(ctx, args)
			return
		}
	}
	if c := h.compiled.Load(); c != nil {
		c.Run(ctx, args)
		return
	}
	h.Prog.Run(ctx, args)
}
