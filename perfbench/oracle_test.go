package main

import (
	"fmt"
	"strings"
	"testing"

	"aqe/internal/tpch"
)

// substitute replaces $1..$n in stmt with the literals, highest index
// first so $1 never matches the prefix of $10.
func substitute(stmt string, args []string) string {
	for i := len(args); i >= 1; i-- {
		stmt = strings.ReplaceAll(stmt, fmt.Sprintf("$%d", i), args[i-1])
	}
	return stmt
}

func TestSubstitute(t *testing.T) {
	got := substitute("a = $1 AND b = $10 AND c = $2", []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "X"})
	if want := "a = 1 AND b = X AND c = 2"; got != want {
		t.Errorf("substitute = %q, want %q", got, want)
	}
}

// TestServeRefs checks the bulk serving references against volcano run
// on each statement with its literals in place of $n.
func TestServeRefs(t *testing.T) {
	cat := tpch.Gen(0.01)
	refs, err := newServeRefs(cat)
	if err != nil {
		t.Fatal(err)
	}
	nOrd := int64(cat.Table("orders").Rows())
	cases := []request{
		{stmt: stmtLookup, arg: 1}, {stmt: stmtLookup, arg: nOrd / 2}, {stmt: stmtLookup, arg: nOrd},
		{stmt: stmtJoin, arg: 2}, {stmt: stmtJoin, arg: nOrd / 3}, {stmt: stmtJoin, arg: nOrd},
		{stmt: stmtRange, arg: firstWeek}, {stmt: stmtRange, arg: (firstWeek + lastWeek) / 2},
		{stmt: stmtRange, arg: lastWeek - 1},
	}
	for _, r := range cases {
		rows, types, err := volcanoSQL(cat, substitute(serveStmts[r.stmt].sql, r.args()))
		if err != nil {
			t.Fatalf("%s %v: %v", serveStmts[r.stmt].name, r.args(), err)
		}
		if len(rows) == 0 {
			t.Errorf("%s %v: empty result; the binding domain should always find rows", serveStmts[r.stmt].name, r.args())
		}
		if got, want := refs.digest(r.stmt, r.arg), rowsDigest(rows, types); got != want {
			t.Errorf("%s %v: bulk reference %s, per-binding %s", serveStmts[r.stmt].name, r.args(), got, want)
		}
	}
}
