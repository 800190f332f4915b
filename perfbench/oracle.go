package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/sql"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/volcano"
)

// The correctness oracle. References come from internal/volcano, the
// tuple-at-a-time interpreter that shares no code generation, tiering or
// scheduling with the engine under test, and are computed off the clock.
// Every timed result is compared as its rows formatted with exec.Format
// (the text both wire protocols send), sorted, and hashed.

// rowsDigest formats rows with exec.Format, sorts them and hashes them.
func rowsDigest(rows [][]expr.Datum, types []expr.Type) string {
	lines := make([]string, len(rows))
	for i, row := range rows {
		lines[i] = formatRow(row, types)
	}
	return textDigest(lines)
}

// formatRow formats one row's cells with exec.Format, joined by '|'.
func formatRow(row []expr.Datum, types []expr.Type) string {
	cells := make([]string, len(row))
	for j, d := range row {
		cells[j] = exec.Format(d, types[j])
	}
	return strings.Join(cells, "|")
}

// textDigest hashes already formatted rows (cells joined by '|'),
// sorting a copy first so row order never matters.
func textDigest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	h := sha256.New()
	for _, l := range s {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stagedVolcano runs a multi-stage plan query stage by stage on the
// volcano interpreter, materializing each stage for the next exactly as
// the engine does. visit, when set, sees every stage's plan node.
func stagedVolcano(q plan.Query, visit func(name string, node plan.Node)) ([][]expr.Datum, []expr.Type, error) {
	prior := map[string]*storage.Table{}
	var rows [][]expr.Datum
	var types []expr.Type
	for i, st := range q.Stages {
		node := st.Build(prior)
		if visit != nil {
			visit(q.Name+"/"+st.Name, node)
		}
		var err error
		if rows, err = volcano.Run(node); err != nil {
			return nil, nil, fmt.Errorf("%s stage %s: %w", q.Name, st.Name, err)
		}
		res := &exec.Result{Rows: rows}
		types = types[:0]
		for _, c := range node.Schema() {
			res.Cols = append(res.Cols, c.Name)
			res.Types = append(res.Types, c.T)
			types = append(types, c.T)
		}
		if i < len(q.Stages)-1 {
			prior[st.Name] = res.ToTable(st.Name)
		}
	}
	return rows, types, nil
}

// tpchRef returns the reference digest of TPC-H query qn.
func tpchRef(cat *storage.Catalog, qn int, visit func(string, plan.Node)) (string, error) {
	rows, types, err := stagedVolcano(tpch.Query(cat, qn), visit)
	if err != nil {
		return "", err
	}
	return rowsDigest(rows, types), nil
}

// serveRefs holds the reference results of the serving statements for
// every binding in their domains. Three volcano runs produce them, one
// per statement, each planned by sql.PlanBind from the statement with its
// parameter predicate removed and the bound column added to the output:
//
//   - lookup and join: every order's row, keyed by o_orderkey; a binding's
//     result is the rows under its key;
//   - range: the aggregate grouped by l_shipdate as well; a binding's
//     result adds up the seven days of its week per group (count and the
//     decimal sum are both exact integer sums).
type serveRefs struct {
	byKey  [2]map[int64][]string // lookup, join: order key -> formatted rows
	days   map[int64][]dayGroup  // ship date -> its groups
	types  []expr.Type           // range result column types
	ranges map[int64]string      // memoized range digests by first day
}

// dayGroup is one (l_returnflag, l_linestatus) group of one ship date.
type dayGroup struct {
	flag, status expr.Datum
	n, sum       int64
}

var refSQL = [...]string{
	stmtLookup: "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders",
	stmtJoin:   "SELECT o_orderkey, c_name, c_mktsegment, o_totalprice, o_orderdate FROM customer, orders WHERE c_custkey = o_custkey",
	stmtRange:  "SELECT l_shipdate, l_returnflag, l_linestatus, count(*) AS n, sum(l_extendedprice) AS s FROM lineitem GROUP BY l_shipdate, l_returnflag, l_linestatus",
}

func newServeRefs(cat *storage.Catalog) (*serveRefs, error) {
	refs := &serveRefs{days: map[int64][]dayGroup{}, ranges: map[int64]string{}}
	for _, st := range []int{stmtLookup, stmtJoin} {
		rows, types, err := volcanoSQL(cat, refSQL[st])
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", serveStmts[st].name, err)
		}
		m := make(map[int64][]string, len(rows))
		for _, row := range rows {
			m[row[0].I] = append(m[row[0].I], formatRow(row[1:], types[1:]))
		}
		refs.byKey[st] = m
	}
	rows, types, err := volcanoSQL(cat, refSQL[stmtRange])
	if err != nil {
		return nil, fmt.Errorf("reference range: %w", err)
	}
	for _, row := range rows {
		refs.days[row[0].I] = append(refs.days[row[0].I], dayGroup{row[1], row[2], row[3].I, row[4].I})
	}
	refs.types = types[1:]
	return refs, nil
}

// digest returns the reference digest of statement st under binding arg
// (an order key, or the first day of the range week).
func (r *serveRefs) digest(st int, arg int64) string {
	if st != stmtRange {
		return textDigest(r.byKey[st][arg])
	}
	if d, ok := r.ranges[arg]; ok {
		return d
	}
	type group struct{ flag, status int64 }
	acc := map[group]*dayGroup{}
	var order []group
	for day := arg; day < arg+7; day++ {
		for _, g := range r.days[day] {
			k := group{g.flag.I, g.status.I}
			a, ok := acc[k]
			if !ok {
				a = &dayGroup{flag: g.flag, status: g.status}
				acc[k] = a
				order = append(order, k)
			}
			a.n += g.n
			a.sum += g.sum
		}
	}
	lines := make([]string, 0, len(order))
	for _, k := range order {
		a := acc[k]
		lines = append(lines, formatRow([]expr.Datum{a.flag, a.status, {I: a.n}, {I: a.sum}}, r.types))
	}
	d := textDigest(lines)
	r.ranges[arg] = d
	return d
}

// volcanoSQL plans a statement without parameters and runs it on volcano.
func volcanoSQL(cat *storage.Catalog, stmt string) ([][]expr.Datum, []expr.Type, error) {
	node, _, _, err := sql.PlanBind(stmt, cat, nil)
	if err != nil {
		return nil, nil, err
	}
	rows, err := volcano.Run(node)
	if err != nil {
		return nil, nil, err
	}
	types := make([]expr.Type, 0, len(node.Schema()))
	for _, c := range node.Schema() {
		types = append(types, c.T)
	}
	return rows, types, nil
}
