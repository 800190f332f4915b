package exec

import (
	"fmt"
	"testing"
	"time"

	"aqe/internal/expr"
	"aqe/internal/jit"
	"aqe/internal/plan"
	"aqe/internal/vm"
)

// mkProg builds a dummy program with a known SizeBytes.
func mkProg(name string, insts int) *vm.Program {
	return &vm.Program{Name: name, Code: make([]vm.Inst, insts)}
}

func TestPlanCacheLRUAndBudget(t *testing.T) {
	one := mkProg("p", 10) // SizeBytes ≈ 64+1+240
	entryBytes := int64(one.SizeBytes() * 2)
	// Budget fits three entries (queryStart + one pipeline each).
	c := newPlanCache(3 * entryBytes)
	fp := func(i byte) Fingerprint { return Fingerprint{i} }

	for i := byte(1); i <= 3; i++ {
		c.insert(fp(i), mkProg("p", 10), []*vm.Program{mkProg("p", 10)})
	}
	st := c.stats()
	if st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("after 3 inserts: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("over budget: %+v", st)
	}

	// Touch entry 1 so entry 2 is the LRU victim, then insert past the
	// budget: eviction counters must rise and accounting stay consistent.
	if c.lookup(fp(1)) == nil {
		t.Fatal("expected hit on entry 1")
	}
	c.insert(fp(4), mkProg("p", 10), []*vm.Program{mkProg("p", 10)})
	st = c.stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after overflow insert: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("over budget after eviction: %+v", st)
	}
	if c.lookup(fp(2)) != nil {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if c.lookup(fp(1)) == nil || c.lookup(fp(4)) == nil {
		t.Fatal("recently used entries evicted")
	}
	st = c.stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
}

func TestPlanCacheCompiledGrowthEvicts(t *testing.T) {
	// Attaching compiled closures grows an entry past the budget and must
	// evict colder entries rather than blow the cap.
	small := mkProg("p", 4)
	per := int64(small.SizeBytes() * 2)
	c := newPlanCache(2*per + 64)
	a, b := Fingerprint{1}, Fingerprint{2}
	c.insert(a, mkProg("p", 4), []*vm.Program{mkProg("p", 4)})
	c.insert(b, mkProg("p", 4), []*vm.Program{mkProg("p", 4)})

	comp := &jit.Compiled{}
	comp.Stats.Closures = 1000 // ≈ 80 KB, far over budget
	c.addCompiled(b, 0, jit.Unoptimized, comp)
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatalf("growth did not evict: %+v", st)
	}
	if st.Bytes > st.Budget && st.Entries > 0 {
		t.Fatalf("cap violated with entries resident: %+v", st)
	}
}

func TestPlanCacheSnapshotIsolation(t *testing.T) {
	// A lookup snapshot must not observe later addCompiled mutations
	// (the engine reads the snapshot outside the cache lock).
	c := newPlanCache(1 << 20)
	fp := Fingerprint{7}
	c.insert(fp, mkProg("qs", 2), []*vm.Program{mkProg("p", 2)})
	snap := c.lookup(fp)
	c.addCompiled(fp, 0, jit.Optimized, &jit.Compiled{})
	if snap.pipes[0].compiled[jit.Optimized] != nil {
		t.Fatal("snapshot aliases the cached entry")
	}
	if c.lookup(fp).pipes[0].compiled[jit.Optimized] == nil {
		t.Fatal("compiled tier not attached")
	}
}

// repeatPlan is a distinct-by-constant plan family for engine-level tests.
func repeatPlan(k int64) func() plan.Node {
	return func() plan.Node {
		s := plan.NewScan(ordersT, "o_total", "o_date")
		sch := s.Schema()
		s.Where(expr.Gt(plan.C(sch, "o_total"), expr.Dec(k, 2)))
		return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
			{Func: plan.Sum, Arg: plan.C(sch, "o_total"), Name: "s"},
			{Func: plan.CountStar, Name: "n"},
		})
	}
}

func TestEngineCacheHitIdenticalResults(t *testing.T) {
	for _, mode := range []Mode{ModeBytecode, ModeUnoptimized, ModeOptimized, ModeAdaptive, ModeIRInterp} {
		e := New(Options{Workers: 2, Mode: mode, Cost: Native(),
			CacheBytes: 8 << 20})
		build := repeatPlan(40000)
		cold, err := e.RunPlan(build(), "repeat")
		if err != nil {
			t.Fatalf("%v cold: %v", mode, err)
		}
		if cold.Stats.CacheHit {
			t.Fatalf("%v: cold run reported a cache hit", mode)
		}
		warm, err := e.RunPlan(build(), "repeat")
		if err != nil {
			t.Fatalf("%v warm: %v", mode, err)
		}
		if !warm.Stats.CacheHit {
			t.Fatalf("%v: warm run missed the cache", mode)
		}
		a := canon(cold.Rows, cold.Types)
		b := canon(warm.Rows, warm.Types)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%v: cached execution diverged:\n%v\n%v", mode, a, b)
		}
		if warm.Stats.Fingerprint != cold.Stats.Fingerprint {
			t.Fatalf("%v: fingerprints differ across runs", mode)
		}
		st := e.CacheStats()
		if st.Hits < 1 || st.Misses < 1 {
			t.Fatalf("%v: cache counters %+v", mode, st)
		}
	}
}

func TestEngineCacheSkipsSimulatedCompile(t *testing.T) {
	// With a simulated 30 ms compile latency, the cold optimized run must
	// pay it and the warm run must not — the measurable latency drop the
	// cache exists for.
	cost := &CostModel{UnoptBase: 30 * time.Millisecond, OptBase: 30 * time.Millisecond,
		SpeedupUnopt: 3.6, SpeedupOpt: 5.0, Simulate: true}
	e := New(Options{Workers: 2, Mode: ModeOptimized, Cost: cost, CacheBytes: 8 << 20})
	build := repeatPlan(60000)
	cold, err := e.RunPlan(build(), "sim")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.RunPlan(build(), "sim")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Compile < 30*time.Millisecond {
		t.Fatalf("cold compile %v, want ≥ 30ms", cold.Stats.Compile)
	}
	if warm.Stats.Compile > 10*time.Millisecond {
		t.Fatalf("warm compile %v, want ≈ 0", warm.Stats.Compile)
	}
	if warm.Stats.Translate > cold.Stats.Translate && warm.Stats.Translate > time.Millisecond {
		t.Fatalf("warm translate %v not reduced (cold %v)", warm.Stats.Translate, cold.Stats.Translate)
	}
}

func TestEngineCacheEvictionUnderPressure(t *testing.T) {
	// A budget big enough for roughly one plan: distinct plans churn
	// through and evict each other; counters must stay consistent.
	e := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: 4 << 10})
	for i := 0; i < 6; i++ {
		if _, err := e.RunPlan(repeatPlan(int64(10000+i))(), "churn"); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.Misses != 6 {
		t.Fatalf("expected 6 misses, got %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("budget violated: %+v", st)
	}
}

// TestWarmStartPick table-tests the warm-start choice as a pure function
// of the measured rates, the ready artifacts and the hit counter.
func TestWarmStartPick(t *testing.T) {
	type rates = [numLevels]float64
	const B, U, O, N, V = LevelBytecode, LevelUnoptimized, LevelOptimized, LevelNative, LevelVector
	cases := []struct {
		name      string
		rate      rates
		opt       bool // optimized closure cached
		native    bool // native code cached
		failed    bool // native latched failed
		supported bool // platform has a native backend
		vec       bool // vector kernel ready
		pick      Level
		hit       int64
		want      Level
		steady    bool
	}{
		{name: "unmeasured vector tried first", rate: rates{B: 1e6, N: 5e6},
			native: true, supported: true, vec: true, pick: -1, hit: 1, want: V},
		{name: "unmeasured native tried first", rate: rates{B: 1e6, V: 3e6},
			native: true, supported: true, vec: true, pick: -1, hit: 1, want: N},
		{name: "unmeasured bytecode tried", rate: rates{N: 5e6},
			native: true, supported: true, pick: -1, hit: 1, want: B},
		{name: "fastest measured wins", rate: rates{B: 1e6, O: 2e6, N: 5e6, V: 3e6},
			opt: true, native: true, supported: true, vec: true, pick: -1, hit: 1, want: N, steady: true},
		{name: "vector fastest", rate: rates{B: 1e6, N: 2e6, V: 3e6},
			native: true, supported: true, vec: true, pick: -1, hit: 2, want: V, steady: true},
		{name: "runner-up re-measured on cadence", rate: rates{B: 1e6, N: 5e6, V: 3e6},
			native: true, supported: true, vec: true, pick: N, hit: remeasureEvery, want: V},
		{name: "no re-measure off cadence", rate: rates{B: 1e6, N: 5e6, V: 3e6},
			native: true, supported: true, vec: true, pick: N, hit: remeasureEvery + 1, want: N, steady: true},
		{name: "incumbent kept within margin", rate: rates{B: 1e6, N: 3.3e6, V: 3e6},
			native: true, supported: true, vec: true, pick: V, hit: 3, want: V, steady: true},
		{name: "incumbent replaced past margin", rate: rates{B: 1e6, N: 4e6, V: 3e6},
			native: true, supported: true, vec: true, pick: V, hit: 3, want: N, steady: true},
		{name: "kept incumbent re-measures the fastest", rate: rates{B: 1e6, N: 3.3e6, V: 3e6},
			native: true, supported: true, vec: true, pick: V, hit: 2 * remeasureEvery, want: N},
		{name: "native unsupported", rate: rates{B: 1e6, N: 9e6, V: 3e6},
			native: true, vec: true, pick: N, hit: 3, want: V, steady: true},
		{name: "native latched failed", rate: rates{B: 1e6, N: 9e6, V: 3e6},
			native: true, failed: true, supported: true, vec: true, pick: N, hit: 3, want: V, steady: true},
		{name: "unmeasured native unsupported not tried", rate: rates{B: 1e6, O: 2e6},
			opt: true, native: true, pick: -1, hit: 3, want: O, steady: true},
		{name: "bytecode alone", rate: rates{B: 1e6},
			pick: -1, hit: remeasureEvery, want: B, steady: true},
	}
	for _, tc := range cases {
		p := &cachedPipe{rate: tc.rate, pick: tc.pick, nativeFailed: tc.failed}
		if tc.opt {
			p.compiled[jit.Optimized] = &jit.Compiled{}
		}
		if tc.native {
			p.compiled[jit.Native] = &jit.Compiled{}
		}
		got, steady := warmStart(p, tc.supported, tc.vec, tc.hit)
		if got != tc.want || steady != tc.steady {
			t.Errorf("%s: got %v (steady %v), want %v (steady %v)", tc.name, got, steady, tc.want, tc.steady)
		}
	}
}
