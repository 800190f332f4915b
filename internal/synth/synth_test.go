package synth

import (
	"testing"

	"aqe/internal/exec"
	"aqe/internal/volcano"
)

func TestWideAggPlanGrowsLinearly(t *testing.T) {
	tbl := Table(100)
	prev := 0
	for _, n := range []int{10, 20, 40} {
		node := WideAggPlan(tbl, n)
		if got := len(node.Schema()); got != n+1 {
			t.Fatalf("schema has %d cols, want %d", got, n+1)
		}
		e := exec.New(exec.Options{Workers: 1, Mode: exec.ModeBytecode, CacheBytes: -1})
		res, err := e.RunPlan(node, "wide")
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Instrs <= prev {
			t.Errorf("instruction count did not grow: %d", res.Stats.Instrs)
		}
		prev = res.Stats.Instrs
	}
}

func TestWideAggMatchesOracle(t *testing.T) {
	tbl := Table(500)
	node := WideAggPlan(tbl, 17)
	want, err := volcano.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(exec.Options{Workers: 2, Mode: exec.ModeOptimized, Cost: exec.Native(), CacheBytes: -1})
	res, err := e.RunPlan(WideAggPlan(tbl, 17), "wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d groups, oracle %d", len(res.Rows), len(want))
	}
	// Group order differs between engines: compare the first (integral)
	// aggregate per group key.
	index := map[int64]int64{}
	for _, r := range want {
		index[r[0].I] = r[1].I
	}
	for _, r := range res.Rows {
		if index[r[0].I] != r[1].I {
			t.Fatalf("group %d: %d vs %d", r[0].I, r[1].I, index[r[0].I])
		}
	}
}
