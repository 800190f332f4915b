package exec

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"aqe/internal/codegen"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
	"aqe/internal/vm"
	"aqe/internal/volcano"
)

const (
	bindRows  = 2048
	bindBlock = 64
	bindNB    = bindRows / bindBlock
)

// mkBindTable builds a clustered table with one column of every prunable
// kind, the String column dictionary-encoded, and 64-row zone maps:
// a = i, c = i.37 (Decimal scale 2), dt = 8000 + i/4, f = i + 0.5,
// ch = 'A'..'T' in runs, s = "k-%04d" of i/4.
func mkBindTable() *storage.Table {
	a := storage.NewColumn("a", storage.Int64)
	c := storage.NewColumn("c", storage.Decimal)
	dt := storage.NewColumn("dt", storage.Date)
	f := storage.NewColumn("f", storage.Float64)
	ch := storage.NewColumn("ch", storage.Char)
	s := storage.NewColumn("s", storage.String)
	for i := 0; i < bindRows; i++ {
		a.AppendInt64(int64(i))
		c.AppendInt64(int64(i*100 + 37))
		dt.AppendInt64(int64(8000 + i/4))
		f.AppendFloat64(float64(i) + 0.5)
		ch.AppendChar(byte('A' + i*20/bindRows))
		s.AppendString(fmt.Sprintf("k-%04d", i/4))
	}
	tbl := storage.NewTable("bind", a, c, dt, f, ch, s)
	tbl.BuildDicts()
	tbl.BuildZoneMaps(bindBlock)
	return tbl
}

// bindPlan filters the table by cond over the given operands (parameter
// references or the constants they stand for) and aggregates, so a
// prepared form and its literal twin share one builder.
func bindPlan(tbl *storage.Table, cond func(sch []plan.ColDef, ops []expr.Expr) expr.Expr, ops []expr.Expr) plan.Node {
	s := plan.NewScan(tbl, "a", "c", "dt", "f", "ch", "s")
	sch := s.Schema()
	s.Where(cond(sch, ops))
	return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{
		{Func: plan.CountStar, Name: "n"},
		{Func: plan.Sum, Arg: plan.C(sch, "a"), Name: "sa"},
		{Func: plan.Min, Arg: plan.C(sch, "a"), Name: "lo"},
		{Func: plan.Max, Arg: plan.C(sch, "a"), Name: "hi"},
	})
}

// paramRefs returns $1..$n typed like the given constants, and the
// constants as bindings.
func paramRefs(vals []expr.Expr) ([]expr.Expr, []*expr.Const) {
	refs := make([]expr.Expr, len(vals))
	args := make([]*expr.Const, len(vals))
	for i, v := range vals {
		refs[i] = expr.ParamRef(i, v.Type())
		args[i] = v.(*expr.Const)
	}
	return refs, args
}

// TestBindPruneMatchesLiteral is the bind-time pruning contract: a
// prepared statement must skip exactly the zone-map blocks the same
// statement with its bindings inlined skips, and return the same rows —
// for every prunable column kind, every comparison operator, both operand
// orders and BETWEEN, with bindings that prune every block, some blocks,
// no block, and values outside the column's range.
func TestBindPruneMatchesLiteral(t *testing.T) {
	ctx := context.Background()
	tbl := mkBindTable()
	modes := []Mode{ModeBytecode, ModeOptimized, ModeVector}
	engines := map[Mode][2]*Engine{} // prepared, literal
	for _, m := range modes {
		o := Options{Workers: 2, Mode: m, Cost: Native(), CacheBytes: 8 << 20, MorselSize: 32}
		engines[m] = [2]*Engine{New(o), New(o)}
	}
	cases := []struct {
		col  string
		vals []expr.Expr
	}{
		{"a", []expr.Expr{expr.Int(-64), expr.Int(0), expr.Int(1000), expr.Int(bindRows - 1), expr.Int(bindRows + 64)}},
		{"dt", []expr.Expr{expr.Date(7900), expr.Date(8000), expr.Date(8250), expr.Date(8511), expr.Date(8600)}},
		{"c", []expr.Expr{expr.Dec(-6400, 2), expr.Dec(37, 2), expr.Dec(100037, 2), expr.Dec(204737, 2),
			expr.Dec(300000, 2), expr.Int(1000), expr.Dec(10005, 1)}},
		{"f", []expr.Expr{expr.Float(-10), expr.Float(0.5), expr.Float(1000.25), expr.Float(2047.5),
			expr.Float(3000), expr.Int(1000), expr.Dec(100050, 2)}},
		{"ch", []expr.Expr{expr.Ch('0'), expr.Ch('A'), expr.Ch('J'), expr.Ch('T'), expr.Ch('z')}},
		{"s", []expr.Expr{expr.Str("a"), expr.Str("k-0000"), expr.Str("k-0250"), expr.Str("k-0250x"),
			expr.Str("k-0511"), expr.Str("z")}},
	}
	type cmpFn func(l, r expr.Expr) expr.Expr
	cmps := []cmpFn{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}

	run := 0
	check := func(t *testing.T, label string, cond func([]plan.ColDef, []expr.Expr) expr.Expr, vals []expr.Expr) int64 {
		t.Helper()
		m := modes[run%len(modes)]
		run++
		refs, args := paramRefs(vals)
		got, err := engines[m][0].RunPlanOpts(ctx, bindPlan(tbl, cond, refs), "prepared", RunOpts{Params: args})
		if err != nil {
			t.Fatalf("%s [%v] prepared: %v", label, m, err)
		}
		lit := bindPlan(tbl, cond, vals)
		want, err := engines[m][1].RunPlan(lit, "literal")
		if err != nil {
			t.Fatalf("%s [%v] literal: %v", label, m, err)
		}
		ref, err := volcano.Run(bindPlan(tbl, cond, vals))
		if err != nil {
			t.Fatalf("%s volcano: %v", label, err)
		}
		gc, wc := canon(got.Rows, got.Types), canon(want.Rows, want.Types)
		if vc := canon(ref, typesOf(lit.Schema())); !reflect.DeepEqual(wc, vc) {
			t.Fatalf("%s [%v]: literal rows %v, volcano %v", label, m, wc, vc)
		}
		if !reflect.DeepEqual(gc, wc) {
			t.Fatalf("%s [%v]: prepared rows %v, literal %v", label, m, gc, wc)
		}
		g, w := got.Stats, want.Stats
		if g.TuplesPruned != w.TuplesPruned || g.BlocksPruned != w.BlocksPruned ||
			g.StringBlocksPruned != w.StringBlocksPruned {
			t.Fatalf("%s [%v]: prepared pruned %d tuples / %d blocks (%d string), literal %d / %d (%d)",
				label, m, g.TuplesPruned, g.BlocksPruned, g.StringBlocksPruned,
				w.TuplesPruned, w.BlocksPruned, w.StringBlocksPruned)
		}
		return g.BlocksPruned
	}

	for _, tc := range cases {
		t.Run(tc.col, func(t *testing.T) {
			var all, some, none int
			tally := func(blocks int64) {
				switch {
				case blocks == bindNB:
					all++
				case blocks > 0:
					some++
				default:
					none++
				}
			}
			for oi, cmp := range cmps {
				for vi, v := range tc.vals {
					colLeft := func(sch []plan.ColDef, ops []expr.Expr) expr.Expr {
						return cmp(plan.C(sch, tc.col), ops[0])
					}
					colRight := func(sch []plan.ColDef, ops []expr.Expr) expr.Expr {
						return cmp(ops[0], plan.C(sch, tc.col))
					}
					tally(check(t, fmt.Sprintf("op%d col-left v%d", oi, vi), colLeft, []expr.Expr{v}))
					tally(check(t, fmt.Sprintf("op%d col-right v%d", oi, vi), colRight, []expr.Expr{v}))
				}
			}
			between := func(sch []plan.ColDef, ops []expr.Expr) expr.Expr {
				return expr.Between(plan.C(sch, tc.col), ops[0], ops[1])
			}
			for i, lo := range tc.vals {
				for j, hi := range tc.vals {
					if lo.Type() != hi.Type() {
						continue
					}
					tally(check(t, fmt.Sprintf("between v%d v%d", i, j), between, []expr.Expr{lo, hi}))
				}
			}
			if all == 0 || some == 0 || none == 0 {
				t.Errorf("bindings pruned all/some/no blocks %d/%d/%d times; want each at least once",
					all, some, none)
			}
		})
	}
}

// TestBindPruneNoStaleMask alternates the bindings of one warm prepared
// statement so that every binding's rows live in a block the previous
// binding pruned: each execution must build its own mask from its own
// values, on the shared cached plan, without compiling anything.
func TestBindPruneNoStaleMask(t *testing.T) {
	ctx := context.Background()
	tbl := mkBindTable()
	e := New(Options{Workers: 2, Mode: ModeAdaptive, Cost: Native(), CacheBytes: 8 << 20, MorselSize: 32})
	window := func(sch []plan.ColDef, ops []expr.Expr) expr.Expr {
		return expr.And(expr.Ge(plan.C(sch, "a"), ops[0]), expr.Lt(plan.C(sch, "a"), ops[1]))
	}
	refs := []expr.Expr{expr.ParamRef(0, expr.TInt), expr.ParamRef(1, expr.TInt)}
	run := func(block int) *Result {
		lo := int64(block*bindBlock + 5)
		res, err := e.RunPlanOpts(ctx, bindPlan(tbl, window, refs), "window", RunOpts{Params: []*expr.Const{
			expr.Int(lo).(*expr.Const), expr.Int(lo + 15).(*expr.Const)}})
		if err != nil {
			t.Fatal(err)
		}
		row := res.Rows[0]
		// 15 rows lo..lo+14: count, sum, min, max.
		if row[0].I != 15 || row[1].I != 15*lo+105 || row[2].I != lo || row[3].I != lo+14 {
			t.Fatalf("block %d: got count %d sum %d min %d max %d, want 15 %d %d %d",
				block, row[0].I, row[1].I, row[2].I, row[3].I, 15*lo+105, lo, lo+14)
		}
		return res
	}
	var warm *Result
	for i := 0; i < 10; i++ {
		warm = run(i % bindNB)
		if i > 0 && warm.Stats.Compilations == 0 {
			break
		}
	}
	if warm.Stats.Compilations != 0 {
		t.Fatalf("plan never settled: %d compilations still launched", warm.Stats.Compilations)
	}
	for _, block := range []int{0, bindNB - 1, 0, 1, bindNB - 2, 16, 3, 16} {
		res := run(block)
		st := res.Stats
		if !st.CacheHit || st.Compilations != 0 {
			t.Fatalf("block %d: cache hit %v, %d compilations; want a hit and none", block, st.CacheHit, st.Compilations)
		}
		if st.BlocksPruned != bindNB-1 {
			t.Fatalf("block %d: pruned %d blocks, want %d", block, st.BlocksPruned, bindNB-1)
		}
	}

	// Bindings that cannot be normalized prune nothing: a decimal finer
	// than the column (the column is rescaled at runtime) still returns
	// the literal statement's rows; a positive control at the column's
	// scale prunes.
	ge := func(sch []plan.ColDef, ops []expr.Expr) expr.Expr { return expr.Ge(plan.C(sch, "c"), ops[0]) }
	for _, tc := range []struct {
		v      expr.Expr
		prunes bool
	}{
		{expr.Dec(1000370, 3), false},
		{expr.Dec(100037, 2), true},
	} {
		refs, args := paramRefs([]expr.Expr{tc.v})
		got, err := e.RunPlanOpts(ctx, bindPlan(tbl, ge, refs), "finer", RunOpts{Params: args})
		if err != nil {
			t.Fatal(err)
		}
		want, err := volcano.Run(bindPlan(tbl, ge, []expr.Expr{tc.v}))
		if err != nil {
			t.Fatal(err)
		}
		if gc, wc := canon(got.Rows, got.Types), canon(want, got.Types); !reflect.DeepEqual(gc, wc) {
			t.Fatalf("c >= %v: rows %v, want %v", tc.v.Type(), gc, wc)
		}
		if pruned := got.Stats.TuplesPruned > 0; pruned != tc.prunes {
			t.Fatalf("c >= %v: pruned %d tuples, want pruning %v", tc.v.Type(), got.Stats.TuplesPruned, tc.prunes)
		}
	}

	// A binding whose rescale overflows leaves the condition unresolved:
	// the statement must trap exactly like its literal twin, never come
	// back empty because a wrapped threshold pruned every block.
	huge := []expr.Expr{expr.Int(math.MaxInt64 / 10)}
	gt := func(sch []plan.ColDef, ops []expr.Expr) expr.Expr { return expr.Gt(plan.C(sch, "c"), ops[0]) }
	refs, args := paramRefs(huge)
	cq, err := codegen.Compile(bindPlan(tbl, gt, refs), rt.NewMemory(), "overflow")
	if err != nil {
		t.Fatal(err)
	}
	if err := cq.BindParams(args); err != nil {
		t.Fatal(err)
	}
	if pc := cq.Pipelines[0].Prune; len(pc) != 1 || pc[0].Resolved() {
		t.Fatalf("overflowing binding: prune conditions %+v, want one unresolved", pc)
	}
	_, perr := e.RunPlanOpts(ctx, bindPlan(tbl, gt, refs), "overflow", RunOpts{Params: args})
	_, lerr := e.RunPlan(bindPlan(tbl, gt, huge), "overflow-literal")
	if perr == nil || lerr == nil || !strings.Contains(perr.Error(), "overflow") {
		t.Fatalf("overflowing binding: prepared error %v, literal error %v; want both to trap", perr, lerr)
	}
}

// TestBuildPruneMaskIgnoresUnresolved: a parameter condition whose binding
// was never installed must not prune, whatever its zero-valued threshold
// would say; once bound, the same threshold prunes like a literal.
func TestBuildPruneMaskIgnoresUnresolved(t *testing.T) {
	tbl := mkBindTable()
	col := tbl.Col("a")
	// a < -1 holds for no row: as a live condition it prunes every block.
	cond := codegen.PruneCond{Col: col, Op: expr.CmpLt, I: -1,
		Param: expr.ParamRef(0, expr.TInt).(*expr.Param), ParamOp: expr.CmpLt}
	if pm := buildPruneMask(tbl, []codegen.PruneCond{cond}); pm != nil {
		t.Fatalf("unresolved condition pruned %d blocks", pm.prunedBlocks)
	}
	cond.Bound = true
	if pm := buildPruneMask(tbl, []codegen.PruneCond{cond}); pm == nil || pm.prunedBlocks != bindNB {
		t.Fatalf("bound condition: mask %+v, want all %d blocks pruned", pm, bindNB)
	}
}

// TestSegmentSizingEdges covers the per-query segments' boundaries: a
// query whose literals outgrow the initial literal segment runs correctly
// in every engine with a stable fingerprint, parameter strings up to the
// heap cap bind and one byte more fails, and a parameter index past the
// slot limit is an error.
func TestSegmentSizingEdges(t *testing.T) {
	ctx := context.Background()
	tbl := mkStrTable(2048, true)
	longLits := func() plan.Node {
		s := plan.NewScan(tbl, "s", "u", "v")
		sch := s.Schema()
		var in []expr.Expr
		for i := 0; i < 150; i++ {
			in = append(in, expr.Str(fmt.Sprintf("word-%03d-with-a-long-literal-tail", i)))
		}
		in = append(in, expr.Str("word-007"), expr.Str("word-021"), expr.Str("word-033"))
		s.Where(expr.And(
			expr.In(plan.C(sch, "u"), in...),
			expr.Or(expr.Like(plan.C(sch, "s"), "item-0%"), expr.Like(plan.C(sch, "s"), "%-04%")),
			expr.NotLike(plan.C(sch, "s"), "%9"),
			expr.Ne(plan.C(sch, "s"), expr.Str("item-011-is-not-in-the-dictionary"))))
		return plan.NewGroupBy(s, []expr.Expr{plan.C(sch, "u")}, []string{"u"}, []plan.AggExpr{
			{Func: plan.CountStar, Name: "n"},
			{Func: plan.Sum, Arg: plan.C(sch, "v"), Name: "sv"},
		})
	}
	cq, err := codegen.Compile(longLits(), rt.NewMemory(), "lits")
	if err != nil {
		t.Fatal(err)
	}
	if cq.LitLen <= 1<<10 {
		t.Fatalf("literal bytes %d: the query does not outgrow the initial segment", cq.LitLen)
	}
	if a, b := fpOf(t, longLits(), vm.Options{}), fpOf(t, longLits(), vm.Options{}); a != b {
		t.Fatalf("grown literal segment fingerprints differ: %s vs %s", a.Short(), b.Short())
	}
	ref := longLits()
	want, err := volcano.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	wc := canon(want, typesOf(ref.Schema()))
	if len(wc) == 0 {
		t.Fatal("long-literal query matched nothing; the check is vacuous")
	}
	for _, m := range []Mode{ModeBytecode, ModeOptimized, ModeVector, ModeAdaptive} {
		res, err := New(Options{Workers: 2, Mode: m, Cost: Native(), MorselSize: 64, CacheBytes: -1}).RunPlan(longLits(), "lits")
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if gc := canon(res.Rows, res.Types); !reflect.DeepEqual(gc, wc) {
			t.Fatalf("%v: rows %v, want %v", m, gc, wc)
		}
	}

	e := New(Options{Workers: 1, Mode: ModeBytecode, CacheBytes: -1})
	twoStr := func() plan.Node {
		s := plan.NewScan(tbl, "s", "u")
		sch := s.Schema()
		s.Where(expr.Or(expr.Eq(plan.C(sch, "s"), expr.ParamRef(0, expr.TString)),
			expr.Eq(plan.C(sch, "u"), expr.ParamRef(1, expr.TString))))
		return plan.NewGroupBy(s, nil, nil, []plan.AggExpr{{Func: plan.CountStar, Name: "n"}})
	}
	bind := func(n0, n1 int) (*Result, error) {
		return e.RunPlanOpts(ctx, twoStr(), "heap", RunOpts{Params: []*expr.Const{
			expr.Str(strings.Repeat("x", n0)).(*expr.Const),
			expr.Str(strings.Repeat("y", n1)).(*expr.Const)}})
	}
	const heapCap = 1 << 16
	res, err := bind(heapCap-100, 100)
	if err != nil {
		t.Fatalf("strings of exactly %d bytes: %v", heapCap, err)
	}
	if res.Rows[0][0].I != 0 {
		t.Fatalf("count %d, want 0", res.Rows[0][0].I)
	}
	if _, err := bind(heapCap-100, 101); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("parameter strings exceed %d bytes", heapCap)) {
		t.Fatalf("strings of %d bytes: error %v, want the heap cap error", heapCap+1, err)
	}
	// Matching bindings still find their rows through the sized segment.
	res, err = e.RunPlanOpts(ctx, twoStr(), "heap", RunOpts{Params: []*expr.Const{
		expr.Str("item-003").(*expr.Const), expr.Str("no-such-word").(*expr.Const)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I == 0 {
		t.Fatal("binding of an existing string counted no rows")
	}

	wide := plan.NewScan(tbl, "v")
	wide.Where(expr.Gt(plan.C(wide.Schema(), "v"), expr.ParamRef(64, expr.TInt)))
	if _, err := codegen.Compile(wide, rt.NewMemory(), "wide"); err == nil ||
		!strings.Contains(err.Error(), "64-parameter limit") {
		t.Fatalf("$65: error %v, want the parameter limit error", err)
	}
}
