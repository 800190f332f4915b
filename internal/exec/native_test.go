package exec

import (
	"fmt"
	"testing"
	"time"

	"aqe/internal/asm"
	"aqe/internal/jit"
)

// TestNativeStaticMode runs the stress plan in ModeNative and checks the
// tier-6 counters: on platforms with a backend the pipelines assemble and
// execute native code; elsewhere every pipeline silently degrades to the
// optimized closure tier. Results must match bytecode either way.
func TestNativeStaticMode(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: -1}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	e := New(Options{Workers: 2, Mode: ModeNative, Cost: Native(), CacheBytes: -1})
	res, err := e.RunPlan(stressPlan(), "native")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
		t.Error("native mode result diverged from bytecode")
	}
	st := res.Stats
	if asm.Supported() {
		if st.NativeCompiles == 0 {
			t.Errorf("no native compilations on a supported platform: %+v", st)
		}
		if st.NativeMorsels == 0 {
			t.Errorf("no morsels executed natively: %+v", st)
		}
	} else if st.NativeFallbacks == 0 {
		t.Errorf("unsupported platform recorded no fallbacks: %+v", st)
	}
	if st.NativeCompiles+st.NativeFallbacks == 0 {
		t.Error("ModeNative neither compiled natively nor fell back")
	}
}

// TestNativeGracefulDegradation simulates executable-memory allocation
// failure (and doubles as the no-backend-GOARCH test elsewhere): a
// ModeNative query must complete silently in the closure tier with the
// fallback counter raised and no morsel ever executing native code.
func TestNativeGracefulDegradation(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: -1}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	asm.SetAllocFailure(true)
	defer asm.SetAllocFailure(false)
	e := New(Options{Workers: 2, Mode: ModeNative, Cost: Native(), CacheBytes: -1})
	res, err := e.RunPlan(stressPlan(), "degraded")
	if err != nil {
		t.Fatalf("ModeNative did not degrade gracefully: %v", err)
	}
	if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
		t.Error("degraded result diverged from bytecode")
	}
	st := res.Stats
	if st.NativeFallbacks == 0 {
		t.Errorf("no fallbacks recorded under forced alloc failure: %+v", st)
	}
	if st.NativeMorsels != 0 {
		t.Errorf("%d morsels ran natively despite alloc failure", st.NativeMorsels)
	}
	for i, l := range st.FinalLevels {
		if l > LevelOptimized {
			t.Errorf("pipeline %d finished in tier %v despite alloc failure", i, l)
		}
	}
}

// TestNativeAdaptiveDegradation: the controller proposes tier 6, assembly
// fails, and the pipeline continues in a closure tier — the failure is
// latched so the controller stops proposing the tier for that function.
func TestNativeAdaptiveDegradation(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; the controller never proposes tier 6 here")
	}
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: -1}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	asm.SetAllocFailure(true)
	defer asm.SetAllocFailure(false)
	cost := Native()
	cost.UnoptBase, cost.UnoptPerInstr, cost.OptBase, cost.OptPerInstr = 0, 0, 0, 0
	cost.NativeBase, cost.NativePerInstr = 0, 0
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost, MorselSize: 32, CacheBytes: -1})
	// The fallback ticks on a compile-pool worker; slow the morsel stream
	// down a little so the pipeline is still draining when the failed
	// assembly reports back, and retry in case it loses the race anyway.
	// The first proposal is always tier 6 (cheapest compile, highest
	// speedup), so any compilation implies a native attempt.
	e.morselHook = func(int, *Handle, int) { time.Sleep(200 * time.Microsecond) }
	compiled := 0
	for attempt := 0; attempt < 25; attempt++ {
		res, err := e.RunPlan(stressPlan(), "adaptive-degraded")
		if err != nil {
			t.Fatalf("adaptive query failed under native alloc failure: %v", err)
		}
		if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
			t.Fatal("adaptive degraded result diverged from bytecode")
		}
		if res.Stats.NativeMorsels != 0 {
			t.Fatalf("%d morsels ran natively despite alloc failure", res.Stats.NativeMorsels)
		}
		compiled += res.Stats.Compilations
		if res.Stats.NativeFallbacks > 0 {
			return
		}
	}
	if compiled == 0 {
		t.Skip("controller never compiled on this machine; nothing to verify")
	}
	t.Errorf("controller compiled %d times but never recorded a native fallback", compiled)
}

// TestNativeDemotion: the controller must demote a pipeline out of native
// code when its measured morsel rate falls far short of what the cost
// model predicted at promotion time. An absurd SpeedupNative makes any
// real pipeline underperform its prediction, so promotion is always
// followed by demotion; the demotion latches the native failure, ticks
// NativeFallbacks, and leaves the pipeline in the optimized tier.
func TestNativeDemotion(t *testing.T) {
	if !asm.Supported() {
		t.Skip("no native backend; the controller never proposes tier 6 here")
	}
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: -1}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	cost := Native()
	cost.UnoptBase, cost.UnoptPerInstr, cost.OptBase, cost.OptPerInstr = 0, 0, 0, 0
	cost.NativeBase, cost.NativePerInstr = 0, 0
	// Native code cannot possibly be 1e9x faster than bytecode: the
	// measured rate lands below demoteMargin of the prediction as soon as
	// the warmup evaluations pass.
	cost.SpeedupNative = 1e9
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: cost, MorselSize: 32, Trace: true, CacheBytes: -1})
	// Slow the morsel stream slightly so pipelines are still draining when
	// the background install + warmup evaluations complete; retry in case
	// a short pipeline still wins the race.
	e.morselHook = func(int, *Handle, int) { time.Sleep(200 * time.Microsecond) }
	promoted := int64(0)
	for attempt := 0; attempt < 25; attempt++ {
		res, err := e.RunPlan(stressPlan(), "demote")
		if err != nil {
			t.Fatalf("adaptive query failed: %v", err)
		}
		if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
			t.Fatal("result diverged across promotion and demotion")
		}
		promoted += res.Stats.NativeCompiles
		if res.Stats.NativeFallbacks > 0 {
			// The demotion must be recorded in the trace as an EvNative
			// event whose level is not native.
			found := false
			for _, ev := range res.Trace.Events() {
				if ev.Kind == EvNative && ev.Level != LevelNative {
					found = true
					if ev.Level != LevelOptimized {
						t.Errorf("demotion landed in tier %v, want optimized", ev.Level)
					}
				}
			}
			if !found {
				t.Error("demotion happened but no demotion trace event recorded")
			}
			return
		}
	}
	if promoted == 0 {
		t.Skip("controller never promoted to native on this machine; nothing to verify")
	}
	t.Errorf("native installed %d times but the controller never demoted", promoted)
}

// TestWarmNativeFill: a warm hit gives each pipeline without cached native
// code one background native compile. With assembly forced to fail, 20
// warm runs launch at most one fill per pipeline (none without a native
// backend), latch the failure in the cache entry, never run a native
// morsel, and return the bytecode rows every time.
func TestWarmNativeFill(t *testing.T) {
	ref, err := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: -1}).RunPlan(stressPlan(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canon(ref.Rows, ref.Types))

	asm.SetAllocFailure(true)
	defer asm.SetAllocFailure(false)
	// Compilation priced out of reach: the controller never compiles, so
	// every compilation a warm run launches is a native fill.
	cost := Native()
	cost.UnoptBase, cost.OptBase, cost.NativeBase = time.Hour, time.Hour, time.Hour
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: cost, CacheBytes: 8 << 20})
	fills := 0
	pipes := 0
	for i := 0; i <= 20; i++ {
		res, err := e.RunPlan(stressPlan(), "fill")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
			t.Fatalf("run %d: result diverged from bytecode", i)
		}
		if res.Stats.NativeMorsels != 0 {
			t.Fatalf("run %d: %d morsels ran natively despite alloc failure", i, res.Stats.NativeMorsels)
		}
		if i == 0 {
			if res.Stats.Compilations != 0 {
				t.Fatalf("cold run launched %d compilations, want none", res.Stats.Compilations)
			}
			pipes = res.Stats.Pipelines
			continue
		}
		if !res.Stats.CacheHit {
			t.Fatalf("run %d missed the cache", i)
		}
		fills += res.Stats.Compilations
	}
	e.pool.wait()
	if !asm.Supported() {
		if fills != 0 {
			t.Errorf("%d fills submitted without a native backend, want 0", fills)
		}
		return
	}
	if fills == 0 || fills > pipes {
		t.Errorf("%d fills over %d pipelines, want at most one per pipeline (and some)", fills, pipes)
	}
	for i, p := range e.cache.peek().pipes {
		if !p.nativeFailed || p.filling || p.compiled[jit.Native] != nil {
			t.Errorf("pipeline %d: failed %v filling %v code %v, want the failure latched",
				i, p.nativeFailed, p.filling, p.compiled[jit.Native] != nil)
		}
	}

	// With assembly working, the fill publishes machine code the next warm
	// run tries (an unmeasured candidate goes first).
	asm.SetAllocFailure(false)
	e = New(Options{Workers: 2, Mode: ModeAdaptive, Cost: cost, CacheBytes: 8 << 20})
	for i := 0; i < 3; i++ {
		res, err := e.RunPlan(stressPlan(), "fill")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(canon(res.Rows, res.Types)); got != want {
			t.Fatalf("run %d: result diverged from bytecode", i)
		}
		e.pool.wait()
		if i == 2 && res.Stats.NativeMorsels == 0 {
			t.Errorf("filled native code never ran: %+v", res.Stats)
		}
	}
}
