package codegen

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt"
	"aqe/internal/storage"
)

// TestLiteralGrowthKeepsFingerprintInputs: a query whose string literals
// outgrow the initial literal segment must generate exactly what it would
// into a segment large enough from the start — the same module (so the
// same embedded literal addresses), literal bytes and patterns, i.e. every
// fingerprint input codegen produces.
func TestLiteralGrowthKeepsFingerprintInputs(t *testing.T) {
	s := storage.NewColumn("s", storage.String)
	v := storage.NewColumn("v", storage.Int64)
	for i := 0; i < 300; i++ {
		s.AppendString(fmt.Sprintf("word-%03d", i%40))
		v.AppendInt64(int64(i))
	}
	tbl := storage.NewTable("lits", s, v)
	build := func() plan.Node {
		sc := plan.NewScan(tbl, "s", "v")
		sch := sc.Schema()
		var in []expr.Expr
		for i := 0; i < 120; i++ {
			in = append(in, expr.Str(fmt.Sprintf("word-%03d-padded-out-to-a-long-literal", i)))
		}
		sc.Where(expr.And(expr.In(plan.C(sch, "s"), in...),
			expr.Like(plan.C(sch, "s"), "%-0%"),
			expr.Ne(plan.C(sch, "s"), expr.Str("a-literal-after-the-growth"))))
		return plan.NewGroupBy(sc, nil, nil, []plan.AggExpr{{Func: plan.CountStar, Name: "n"}})
	}
	compile := func() *Query {
		q, err := Compile(build(), rt.NewMemory(), "lits")
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	grown := compile()
	if grown.LitLen <= litInitCap {
		t.Fatalf("%d literal bytes fit the initial %d-byte segment; the test does not grow it",
			grown.LitLen, litInitCap)
	}
	defer func(n int) { litInitCap = n }(litInitCap)
	litInitCap = litCap
	flat := compile()
	if !bytes.Equal(grown.Module.AppendCanonical(nil), flat.Module.AppendCanonical(nil)) {
		t.Error("modules differ between a grown and a pre-sized literal segment")
	}
	if !bytes.Equal(grown.Literals[:grown.LitLen], flat.Literals[:flat.LitLen]) {
		t.Error("literal bytes differ between a grown and a pre-sized literal segment")
	}
	if !reflect.DeepEqual(grown.Patterns, flat.Patterns) || !reflect.DeepEqual(grown.Params, flat.Params) {
		t.Error("patterns or parameter descriptors differ")
	}
}
