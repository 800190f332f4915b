package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aqe/internal/asm"
	"aqe/internal/expr"
	"aqe/internal/jit"
	"aqe/internal/plan"
)

// stressPlan: a two-pipeline plan (join build + probe into an aggregate)
// over the shared test tables, large enough to produce many morsels.
func stressPlan() plan.Node {
	c := plan.NewScan(custT, "c_id", "c_seg")
	o := plan.NewScan(ordersT, "o_cust", "o_total")
	j := plan.NewJoin(plan.Inner, c, o,
		[]expr.Expr{plan.C(c.Schema(), "c_id")},
		[]expr.Expr{plan.C(o.Schema(), "o_cust")},
		[]string{"c_seg"})
	jsch := j.Schema()
	return plan.NewGroupBy(j,
		[]expr.Expr{plan.C(jsch, "c_seg")}, []string{"seg"},
		[]plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(jsch, "o_total"), Name: "s"},
			{Func: plan.CountStar, Name: "n"},
		})
}

// TestModeSwitchStress forces a tier switch at every morsel boundary on
// every worker — far more violent than the controller ever is — while the
// adaptive controller and the shared compile pool run concurrently, and
// while three other goroutines execute the same query through the shared
// cache. Run under -race this verifies that handle swapping, the compile
// pool, and the cache are free of data races; correctness is checked
// against a bytecode-only reference.
func TestModeSwitchStress(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: -1}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	cost := Native()
	cost.UnoptBase, cost.UnoptPerInstr, cost.OptBase, cost.OptPerInstr = 0, 0, 0, 0
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost,
		MorselSize: 32, CacheBytes: 1 << 20, CompileWorkers: 2})

	// Memoized per-handle variants (mutex-guarded: the hook runs on every
	// worker concurrently). On platforms without a native backend the
	// tier-6 slots reuse the optimized closure, so the flip cadence is the
	// same everywhere. Index 3 is the register-allocating native backend,
	// index 4 the slot-per-op one — flipping between them mid-pipeline is
	// exactly the bit-compatibility claim the allocator's flush-at-exit
	// invariant makes.
	var variantMu sync.Mutex
	variants := map[*Handle]*[5]*jit.Compiled{}
	variantFor := func(h *Handle, idx int, level jit.Level, opts jit.Options) *jit.Compiled {
		variantMu.Lock()
		defer variantMu.Unlock()
		set := variants[h]
		if set == nil {
			set = &[5]*jit.Compiled{}
			variants[h] = set
		}
		if set[idx] == nil {
			c, err := jit.CompileOpts(h.Fn, level, h.Prog, opts)
			if err != nil {
				panic(err)
			}
			set[idx] = c
		}
		return set[idx]
	}
	var flips, vecFlips atomic.Int64
	e.morselHook = func(pipeline int, h *Handle, worker int) {
		switch flips.Add(1) % 6 {
		case 0:
			h.Install(nil, LevelBytecode)
		case 1:
			h.Install(variantFor(h, 1, jit.Unoptimized, jit.Options{}), LevelUnoptimized)
		case 2:
			h.Install(variantFor(h, 2, jit.Optimized, jit.Options{}), LevelOptimized)
		case 3:
			if asm.Supported() {
				h.Install(variantFor(h, 3, jit.Native, jit.Options{}), LevelNative)
			} else {
				h.Install(variantFor(h, 2, jit.Optimized, jit.Options{}), LevelOptimized)
			}
		case 4:
			if asm.Supported() {
				h.Install(variantFor(h, 4, jit.Native, jit.Options{NoRegAlloc: true}), LevelNative)
			} else {
				h.Install(variantFor(h, 2, jit.Optimized, jit.Options{}), LevelOptimized)
			}
		case 5:
			// The vectorized engine: flipping a pipeline between compiled
			// closures and batch kernels mid-query is the engine-equivalence
			// claim. Pipelines whose shape the kernel compiler rejected stay
			// on the optimized closure.
			if h.VecKernel() != nil {
				vecFlips.Add(1)
				h.InstallVector()
			} else {
				h.Install(variantFor(h, 2, jit.Optimized, jit.Options{}), LevelOptimized)
			}
		}
	}

	const parallel, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, parallel*rounds)
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := e.RunPlan(stressPlan(), "stress")
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
					errs <- fmt.Errorf("result diverged under tier flipping")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if flips.Load() == 0 {
		t.Fatal("morsel hook never fired")
	}
	if vecFlips.Load() == 0 {
		t.Error("no morsel ever ran vectorized — kernel compilation failed for every pipeline")
	}
	if st := e.CacheStats(); st.Hits == 0 {
		t.Errorf("concurrent repeats never hit the cache: %+v", st)
	}
}

// TestSharedCompilePoolBounded hammers the pool with more jobs than the
// concurrency bound and asserts the bound holds and every job runs.
func TestSharedCompilePoolBounded(t *testing.T) {
	p := newCompilePool(3)
	var running, peak, done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		p.submit(func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			running.Add(-1)
			done.Add(1)
		})
	}
	wg.Wait()
	if done.Load() != 200 {
		t.Fatalf("ran %d jobs, want 200", done.Load())
	}
	if peak.Load() > 3 {
		t.Fatalf("concurrency peak %d exceeds bound 3", peak.Load())
	}
}
