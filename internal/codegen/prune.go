package codegen

import (
	"math"

	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/storage"
)

// PruneCond is one sargable conjunct of a scan's pushed-down filter,
// usable for zone-map pruning: every surviving tuple must satisfy
// `column Op threshold`. The threshold is pre-normalized to the column's
// stored representation (Decimal thresholds rescaled to the column's
// scale, Float64 thresholds converted with the same int->float semantics
// the generated comparison uses), so block pruning compares raw zone-map
// statistics against it with no further conversion.
//
// Pruning is purely conservative: the generated code keeps the full
// residual predicate, the descriptor only licenses skipping blocks whose
// min/max prove no contained row can pass this conjunct.
type PruneCond struct {
	Col *storage.Column
	Op  expr.CmpOp
	I   int64   // threshold for integer-representable columns
	F   float64 // threshold for Float64 columns

	// Param is set when the threshold is a prepared-statement parameter
	// (ParamOp is then the conjunct's operator with the column on the
	// left). Codegen never sees the value, so such a condition starts
	// unresolved; BindParams normalizes each execution's binding into
	// Op/I/F exactly as for a literal and sets Bound. Neither is part of
	// the fingerprint: executions that differ only in bindings still share
	// one plan.
	Param   *expr.Param
	ParamOp expr.CmpOp
	Bound   bool
}

// Float reports whether the condition compares in the float domain.
func (pc PruneCond) Float() bool { return pc.Col.Kind == storage.Float64 }

// Resolved reports whether the threshold is known: always for a literal,
// for a parameter only after its binding normalized. An unresolved
// condition must never license a skip.
func (pc PruneCond) Resolved() bool { return pc.Param == nil || pc.Bound }

// BlockMayMatch reports whether some value in [min, max] can satisfy the
// condition (integer-representable columns). A false return proves every
// row of the block fails this conjunct, licensing a skip.
func (pc PruneCond) BlockMayMatch(min, max int64) bool {
	switch pc.Op {
	case expr.CmpEq:
		return min <= pc.I && pc.I <= max
	case expr.CmpNe:
		// Only a constant block equal to the threshold is unsatisfiable.
		return !(min == pc.I && max == pc.I)
	case expr.CmpLt:
		return min < pc.I
	case expr.CmpLe:
		return min <= pc.I
	case expr.CmpGt:
		return max > pc.I
	case expr.CmpGe:
		return max >= pc.I
	}
	return true
}

// BlockMayMatchF is BlockMayMatch for Float64 columns. An empty range
// (min=+Inf, max=-Inf: all-NaN block) satisfies nothing, and NaN rows
// inside a populated block cannot satisfy any comparison, so statistics
// that ignore NaNs stay conservative.
func (pc PruneCond) BlockMayMatchF(min, max float64) bool {
	switch pc.Op {
	case expr.CmpEq:
		return min <= pc.F && pc.F <= max
	case expr.CmpNe:
		return !(min == pc.F && max == pc.F)
	case expr.CmpLt:
		return min < pc.F
	case expr.CmpLe:
		return min <= pc.F
	case expr.CmpGt:
		return max > pc.F
	case expr.CmpGe:
		return max >= pc.F
	}
	return true
}

// extractPrune collects the sargable conjuncts of a scan filter: the
// top-level AND is flattened and every `col <cmp> const` or `col <cmp> $n`
// (either operand order) becomes a PruneCond — over fixed-width columns,
// and over dictionary-encoded String columns as a condition on dictionary
// codes matching the code-valued zone maps. String IN and LIKE conjuncts
// become code-range conditions too. Conjuncts of no usable shape — disjunctions, column-column
// comparisons, strings without a dictionary — contribute nothing; the
// residual predicate still runs in full inside the generated kernel.
func (g *cgen) extractPrune(s *plan.Scan) []PruneCond {
	if s.Filter == nil {
		return nil
	}
	var out []PruneCond
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		if l, ok := e.(*expr.Logic); ok && l.IsAnd {
			for _, a := range l.Args {
				walk(a)
			}
			return
		}
		if pc, ok := sargable(s, e); ok {
			out = append(out, pc)
			return
		}
		out = append(out, stringPrune(s, e)...)
	}
	walk(s.Filter)
	return out
}

// dictPruneMaxCard bounds the dictionary cardinality for which a LIKE
// conjunct is evaluated against every dictionary value at plan-compile
// time to derive its matched-code range (mirrors the bitmap-rewrite cap).
const dictPruneMaxCard = 1 << 16

// scanCol resolves a column reference of the scan's output to its storage
// column, or nil.
func scanCol(s *plan.Scan, e expr.Expr) *storage.Column {
	cr, ok := e.(*expr.ColRef)
	if !ok || cr.Idx < 0 || cr.Idx >= len(s.Cols) {
		return nil
	}
	return s.Table.Col(s.Cols[cr.Idx])
}

// stringPrune derives code-domain PruneConds from a string IN or LIKE
// conjunct over a dictionary-encoded scan column: the min/max matched code
// (a conservative envelope — blocks inside it still run the full
// predicate). A conjunct no dictionary value satisfies yields the
// impossible condition code = -1, pruning every block. String comparisons
// go through sargable.
func stringPrune(s *plan.Scan, e expr.Expr) []PruneCond {
	colDict := func(ce expr.Expr) (*storage.Column, *storage.Dict) {
		col := scanCol(s, ce)
		if col == nil || col.Kind != storage.String {
			return nil, nil
		}
		return col, col.Dict()
	}
	span := func(col *storage.Column, lo, hi int64) []PruneCond {
		if hi < 0 {
			return []PruneCond{noneCond(col)}
		}
		return []PruneCond{
			{Col: col, Op: expr.CmpGe, I: lo},
			{Col: col, Op: expr.CmpLe, I: hi},
		}
	}
	switch x := e.(type) {
	case *expr.InList:
		col, d := colDict(x.Arg)
		if col == nil || d == nil {
			return nil
		}
		lo, hi := int64(math.MaxInt64), int64(-1)
		for _, c := range x.List {
			if code, ok := d.Code(c.S); ok {
				lo = min(lo, code)
				hi = max(hi, code)
			}
		}
		return span(col, lo, hi)
	case *expr.LikeExpr:
		if x.Negate {
			return nil
		}
		col, d := colDict(x.Arg)
		if col == nil || d == nil || d.Card() > dictPruneMaxCard {
			return nil
		}
		lo, hi := int64(-1), int64(-1)
		for i := 0; i < d.Card(); i++ {
			if x.Compiled.Match([]byte(d.Value(i))) {
				if lo < 0 {
					lo = int64(i)
				}
				hi = int64(i)
			}
		}
		return span(col, lo, hi)
	}
	return nil
}

// noneCond is the impossible condition code = -1: no block may match.
func noneCond(col *storage.Column) PruneCond {
	return PruneCond{Col: col, Op: expr.CmpEq, I: -1}
}

// sargable recognizes `col <cmp> const` / `const <cmp> col` and the same
// with a parameter `$n` in place of the constant. A constant is normalized
// into the condition right away; a parameter yields an unresolved
// condition that BindParams normalizes from each execution's binding
// through the same normalize, so a prepared statement prunes exactly the
// blocks the statement with its bindings inlined would.
func sargable(s *plan.Scan, e expr.Expr) (PruneCond, bool) {
	cmp, ok := e.(*expr.Cmp)
	if !ok {
		return PruneCond{}, false
	}
	colE, valE, op := cmp.L, cmp.R, cmp.Op
	if _, isCol := colE.(*expr.ColRef); !isCol {
		colE, valE = cmp.R, cmp.L
		op = flipCmp(op)
	}
	col := scanCol(s, colE)
	if col == nil {
		return PruneCond{}, false
	}
	switch v := valE.(type) {
	case *expr.Const:
		return normalize(col, op, v)
	case *expr.Param:
		return PruneCond{Col: col, Param: v, ParamOp: op}, true
	}
	return PruneCond{}, false
}

// normalize converts the conjunct `col op c` into a PruneCond whose
// threshold is in the column's stored representation: Decimal constants
// rescaled to the column's scale, Float64 thresholds converted with the
// int->float semantics the generated comparison uses (toFloatIR: SIToFP
// then a divide by 10^scale), strings mapped to dictionary codes. ok is
// false when the conjunct licenses no pruning. That includes any shape
// whose runtime evaluation would rescale the column value: the rescale
// carries an overflow check, and pruning must never elide a potential
// trap, so only constants at or below the column's decimal scale qualify.
func normalize(col *storage.Column, op expr.CmpOp, c *expr.Const) (PruneCond, bool) {
	pc := PruneCond{Col: col, Op: op}
	switch col.Kind {
	case storage.Int64:
		if c.T.Kind != expr.KInt {
			return PruneCond{}, false
		}
		pc.I = c.I
	case storage.Date:
		if c.T.Kind != expr.KDate {
			return PruneCond{}, false
		}
		pc.I = c.I
	case storage.Char:
		if c.T.Kind != expr.KChar {
			return PruneCond{}, false
		}
		pc.I = c.I
	case storage.Decimal:
		var cscale int
		switch c.T.Kind {
		case expr.KInt:
			cscale = 0
		case expr.KDecimal:
			cscale = c.T.Scale
		default:
			return PruneCond{}, false
		}
		if cscale > col.Scale {
			return PruneCond{}, false
		}
		v, ok := mulPow10(c.I, col.Scale-cscale)
		if !ok {
			return PruneCond{}, false
		}
		pc.I = v
	case storage.Float64:
		switch c.T.Kind {
		case expr.KFloat:
			pc.F = c.F
		case expr.KInt:
			pc.F = float64(c.I)
		case expr.KDecimal:
			pc.F = float64(c.I) / float64(pow10(c.T.Scale))
		default:
			return PruneCond{}, false
		}
	default: // String
		return dictCond(col, op, c)
	}
	return pc, true
}

// dictCond maps a string comparison onto the column's order-preserving
// dictionary: equality to the literal's exact code, ordering to the code
// range around its lower bound. An equality no dictionary value satisfies
// yields the impossible condition; an inequality against an absent value
// prunes nothing.
func dictCond(col *storage.Column, op expr.CmpOp, c *expr.Const) (PruneCond, bool) {
	d := col.Dict()
	if d == nil || c.T.Kind != expr.KString {
		return PruneCond{}, false
	}
	code, found := d.Code(c.S)
	lb := d.LowerBound(c.S)
	ub := lb
	if found {
		ub++
	}
	switch op {
	case expr.CmpEq:
		if !found {
			return noneCond(col), true
		}
		return PruneCond{Col: col, Op: expr.CmpEq, I: code}, true
	case expr.CmpNe:
		if !found {
			return PruneCond{}, false
		}
		return PruneCond{Col: col, Op: expr.CmpNe, I: code}, true
	case expr.CmpLt:
		return PruneCond{Col: col, Op: expr.CmpLt, I: lb}, true
	case expr.CmpLe:
		return PruneCond{Col: col, Op: expr.CmpLt, I: ub}, true
	case expr.CmpGt:
		return PruneCond{Col: col, Op: expr.CmpGe, I: ub}, true
	default: // CmpGe
		return PruneCond{Col: col, Op: expr.CmpGe, I: lb}, true
	}
}

// resolvePrune normalizes every parameter condition of the query's scan
// pipelines from its binding. A binding normalize refuses (a decimal
// finer than the column, a rescale that overflows, a string against a
// column whose dictionary is gone) leaves the condition unresolved, which
// prunes nothing.
func (q *Query) resolvePrune(vals []*expr.Const) {
	for _, pl := range q.Pipelines {
		for i := range pl.Prune {
			pc := &pl.Prune[i]
			if pc.Param == nil {
				continue
			}
			r, ok := normalize(pc.Col, pc.ParamOp, vals[pc.Param.Idx])
			r.Col, r.Param, r.ParamOp, r.Bound = pc.Col, pc.Param, pc.ParamOp, ok
			*pc = r
		}
	}
}

// flipCmp mirrors a comparison across its operands (const <cmp> col ->
// col <cmp'> const).
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.CmpLt:
		return expr.CmpGt
	case expr.CmpLe:
		return expr.CmpGe
	case expr.CmpGt:
		return expr.CmpLt
	case expr.CmpGe:
		return expr.CmpLe
	}
	return op // Eq, Ne are symmetric
}

// mulPow10 scales v by 10^p, reporting overflow instead of wrapping.
func mulPow10(v int64, p int) (int64, bool) {
	for i := 0; i < p; i++ {
		if v > math.MaxInt64/10 || v < math.MinInt64/10 {
			return 0, false
		}
		v *= 10
	}
	return v, true
}
