package exec

import (
	"strings"
	"testing"
	"time"
)

func TestCostModelMonotonicity(t *testing.T) {
	for _, m := range []*CostModel{Paper(), Native()} {
		prev := time.Duration(0)
		for _, n := range []int{100, 1000, 10000, 100000} {
			u := m.UnoptTime(n)
			o := m.OptTime(n)
			if u <= 0 || o <= 0 {
				t.Fatalf("non-positive compile time at %d instrs", n)
			}
			if o < u {
				t.Errorf("optimized cheaper than unoptimized at %d instrs", n)
			}
			if u < prev {
				t.Errorf("unopt time not monotone at %d instrs", n)
			}
			prev = u
		}
		if m.Speedup(LevelOptimized) < m.Speedup(LevelUnoptimized) ||
			m.Speedup(LevelUnoptimized) < m.Speedup(LevelBytecode) {
			t.Error("speedups not ordered")
		}
		if m.Speedup(LevelBytecode) != 1 {
			t.Error("bytecode speedup must be 1")
		}
	}
}

func TestPaperModelCalibration(t *testing.T) {
	m := Paper()
	// Table I anchor: ~2000 instructions compile in roughly 6 ms
	// unoptimized and ~42 ms optimized.
	u := m.UnoptTime(2000)
	if u < 4*time.Millisecond || u > 9*time.Millisecond {
		t.Errorf("unopt(2000) = %v, want ~6ms", u)
	}
	o := m.OptTime(2000)
	if o < 30*time.Millisecond || o > 90*time.Millisecond {
		t.Errorf("opt(2000) = %v, want ~42-70ms", o)
	}
	// Fig. 15 anchor: ~10k instructions in one function exceed seconds.
	if m.OptTime(10000) < 3*time.Second {
		t.Errorf("opt(10000) = %v, want super-linear blowup", m.OptTime(10000))
	}
}

// TestExtrapolationChoosesStay verifies the Fig. 7 decision at the
// boundary: with almost no work left, compiling never pays off.
func TestExtrapolationChoosesStay(t *testing.T) {
	e := New(Options{Workers: 4, Mode: ModeAdaptive, Cost: Paper(), CacheBytes: -1})
	// Replicate the controller arithmetic directly.
	m := e.opts.Cost
	r0 := 1e6 // tuples/sec in bytecode
	w := 4.0
	decide := func(n float64, instrs int) Level {
		t0 := n / r0 / w
		best, bestT := LevelBytecode, t0
		for _, l := range []Level{LevelUnoptimized, LevelOptimized} {
			var c float64
			if l == LevelUnoptimized {
				c = m.UnoptTime(instrs).Seconds()
			} else {
				c = m.OptTime(instrs).Seconds()
			}
			r := r0 * m.Speedup(l)
			rem := n - (w-1)*r0*c
			if rem < 0 {
				rem = 0
			}
			tt := c + rem/r/w
			if tt < bestT {
				bestT = tt
				best = l
			}
		}
		return best
	}
	if got := decide(1000, 500); got != LevelBytecode {
		t.Errorf("tiny remainder chose %v", got)
	}
	if got := decide(5e8, 500); got == LevelBytecode {
		t.Errorf("huge remainder stayed in bytecode")
	}
	// Monotonicity: more remaining work never moves the decision toward a
	// cheaper tier.
	rank := map[Level]int{LevelBytecode: 0, LevelUnoptimized: 1, LevelOptimized: 2}
	prev := 0
	for _, n := range []float64{1e3, 1e5, 1e6, 1e7, 1e8, 1e9} {
		r := rank[decide(n, 500)]
		if r < prev {
			t.Errorf("decision regressed at n=%g", n)
		}
		prev = r
	}
}

func TestGanttRendering(t *testing.T) {
	tr := NewTrace()
	base := tr.Origin()
	tr.Add(Event{Kind: EvMorsel, Pipeline: 0, Label: "scan x", Worker: 0,
		Start: 0, End: 10 * time.Millisecond})
	tr.Add(Event{Kind: EvCompile, Pipeline: 0, Worker: -1,
		Start: 2 * time.Millisecond, End: 5 * time.Millisecond})
	tr.Add(Event{Kind: EvMorsel, Pipeline: 1, Label: "probe y", Worker: 1,
		Start: 4 * time.Millisecond, End: 9 * time.Millisecond})
	g := tr.Gantt(50)
	for _, want := range []string{"w0", "w1", "cc", "scan x", "probe y", "C"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
	// Merge shifts by origin delta without panicking.
	tr2 := NewTrace()
	tr2.Add(Event{Kind: EvMorsel, Pipeline: 2, Label: "z", Worker: 0,
		Start: 0, End: time.Millisecond})
	tr.Merge(tr2)
	if len(tr.Events()) != 4 {
		t.Errorf("merge lost events")
	}
	_ = base
}
