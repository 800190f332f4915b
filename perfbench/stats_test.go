package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, unsorted
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {51, 6},
	}
	for _, c := range cases {
		got, n := percentile(xs, c.p)
		if got != c.want || n != len(xs) {
			t.Errorf("percentile(%v) = %v (n=%d), want %v (n=%d)", c.p, got, n, c.want, len(xs))
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if v, n := percentile(nil, 99); v != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d; want 0, 0", v, n)
	}
}

func TestTailSupport(t *testing.T) {
	// p99 has ten samples beyond it only from 1000 samples on.
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {2000, 20}, {100, 1}, {50, 0}} {
		if got := beyond(c.n, 99); got != c.want {
			t.Errorf("beyond(%d, 99) = %d, want %d", c.n, got, c.want)
		}
	}
	// With 1000 samples 1..1000 the p99 is 990 and exactly ten lie above it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, n := percentile(xs, 99); v != 990 || n != 1000 {
		t.Errorf("p99 of 1..1000 = %v (n=%d), want 990 (n=1000)", v, n)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean(1,100) = %v, want 10", g)
	}
	if g := geomean([]float64{2, 8, 4}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8,4) = %v, want 4", g)
	}
	if g := geomean([]float64{3, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v, want 0", g)
	}
}

func sp(id, parent int64, start, end int) span {
	return span{ID: id, Parent: parent, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, 0, 100)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, 10, 20), sp(3, 1, 50, 80)}, 60},
		{"overlapping counted once", []span{sp(2, 1, 10, 40), sp(3, 1, 30, 60)}, 50},
		{"nested inside a sibling", []span{sp(2, 1, 10, 90), sp(3, 1, 20, 30)}, 20},
		{"overhang clipped", []span{sp(2, 1, -20, 10), sp(3, 1, 90, 150)}, 80},
		{"outside ignored", []span{sp(2, 1, 200, 300)}, 100},
		{"touching", []span{sp(2, 1, 0, 50), sp(3, 1, 50, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ns int) time.Time { return tr.t0.Add(time.Duration(ns)) }
	trace := tr.id()
	root := tr.add(trace, 0, "wire", at(0), at(100), nil)
	srv := tr.add(trace, root, "server", at(20), at(80), nil)
	tr.add(trace, srv, "exec", at(30), at(50), nil)
	if got := tr.selfTimes("wire"); len(got) != 1 || got[0] != 40 {
		t.Errorf("wire self time = %v, want [40ns]", got)
	}
	if got := tr.selfTimes("server"); len(got) != 1 || got[0] != 40 {
		t.Errorf("server self time = %v, want [40ns]", got)
	}
	var nilTracer *tracer
	nilTracer.add(1, 0, "x", at(0), at(1), nil) // untraced runs: a no-op
	if got := nilTracer.named("x"); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
}
