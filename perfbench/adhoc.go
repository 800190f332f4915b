package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"aqe"
	"aqe/internal/exec"
	"aqe/internal/plan"
	"aqe/internal/tpch"
)

// adhoc-tpch: the paper's regime. One closed-loop client runs all 22
// TPC-H queries per round, in a seeded shuffled order, through
// aqe.DB.Exec with the plan cache disabled, so every query pays code
// generation, translation and background compilation before and while it
// executes.

const (
	tpchQueries  = 22
	setupRepeats = 5 // setup_s is the median of this many set-ups
	minRounds    = 3
)

// adhocQuery is one timed query execution.
type adhocQuery struct {
	qn     int
	lat    time.Duration
	digest string
	err    error
}

func runAdhoc(cfg config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.spans = tr
	}

	db := setupInProcess(aqe.Options{CacheBytes: -1}, tr, out)

	rng := rand.New(rand.NewSource(cfg.seed))
	order := func() []int {
		p := rng.Perm(tpchQueries)
		for i := range p {
			p[i]++
		}
		return p
	}
	var all []adhocQuery
	round := func(d *aqe.DB, agg *engineAgg) ([]adhocQuery, error) {
		var rs []adhocQuery
		for _, qn := range order() {
			q, err := adhocExec(d, qn, tr, agg)
			if err != nil {
				return nil, err
			}
			rs = append(rs, q)
		}
		all = append(all, rs...)
		return rs, nil
	}
	// rounds runs whole rounds until dur has passed (at least minRounds)
	// and returns the per-round query lists.
	rounds := func(d *aqe.DB, dur time.Duration, agg *engineAgg) ([][]adhocQuery, error) {
		var out [][]adhocQuery
		start := time.Now()
		for len(out) < minRounds || time.Since(start) < dur {
			rs, err := round(d, agg)
			if err != nil {
				return nil, err
			}
			out = append(out, rs)
		}
		return out, nil
	}

	// One unmeasured warm-up round: the process, not the plans, warms up.
	if _, err := round(db, nil); err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var measured [][]adhocQuery
	var err error
	if !cfg.trace {
		if measured, err = rounds(db, dur, nil); err != nil {
			return nil, err
		}
	} else {
		// Half untraced, half traced on a DB with the engine's per-morsel
		// trace over the same tables; the two halves give the overhead.
		base, err := rounds(db, dur/2, nil)
		if err != nil {
			return nil, err
		}
		traced := aqe.Open(aqe.Options{CacheBytes: -1, Trace: true})
		for _, name := range db.Catalog().Names() {
			traced.Register(db.Catalog().Table(name))
		}
		agg := &engineAgg{}
		if err := agg.measureRuntime(func() error {
			measured, err = rounds(traced, dur/2, agg)
			return err
		}); err != nil {
			return nil, err
		}
		baseG, tracedG := adhocGeomean(base), adhocGeomean(measured)
		out.metrics["trace.overhead_pct"] = (tracedG/baseG - 1) * 100
		agg.metrics(out.metrics)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	// Off the clock: the volcano reference for every query, and (traced)
	// the layer probes over the same stage plans.
	refs := map[int]string{}
	type stagePlan struct {
		qn   int
		name string
		node plan.Node
	}
	var plans []stagePlan
	for qn := 1; qn <= tpchQueries; qn++ {
		ref, err := tpchRef(db.Catalog(), qn, func(name string, node plan.Node) {
			plans = append(plans, stagePlan{qn, name, node})
		})
		if err != nil {
			return nil, fmt.Errorf("reference Q%d: %w", qn, err)
		}
		refs[qn] = ref
	}
	for _, q := range all {
		out.attempted++
		if q.err != nil || q.digest != refs[q.qn] {
			out.failed++
		}
	}
	if tr != nil {
		for rep := 0; rep < 3; rep++ {
			for qn := 1; qn <= tpchQueries; qn++ {
				trace := tr.id()
				for _, p := range plans {
					if p.qn != qn {
						continue
					}
					if err := probePlan(tr, trace, p.name, p.node); err != nil {
						return nil, fmt.Errorf("probe %s: %w", p.name, err)
					}
				}
			}
		}
		probeMetrics(tr, out.metrics)
		out.metrics["tpch.gen_s"] = medianDur(tr.named("tpch.Gen"), time.Duration.Seconds)
		// No SQL text and no server in this workload.
		for _, m := range []string{"sql.plan_us", "server.nonexec_us", "server.wire_us"} {
			out.metrics[m] = 0
		}
		out.detail["self_time_ms"] = selfTimeTable(tr)
	}

	// End-to-end metrics from the measured rounds. Each query is taken at
	// its median latency over the rounds, and the percentiles and the
	// geomean summarize those 22 medians: a pooled p99 would rest on the
	// four or five slowest of a few hundred executions.
	perQuery := map[int][]float64{}
	var roundS []float64
	for _, rs := range measured {
		sum := time.Duration(0)
		for _, q := range rs {
			perQuery[q.qn] = append(perQuery[q.qn], ms(q.lat))
			sum += q.lat
		}
		roundS = append(roundS, sum.Seconds())
	}
	medians := map[string]float64{}
	var qmed []float64
	for qn := 1; qn <= tpchQueries; qn++ {
		m := median(perQuery[qn])
		medians[fmt.Sprintf("Q%d", qn)] = m
		qmed = append(qmed, m)
	}
	p50, _ := percentile(qmed, 50)
	p99, _ := percentile(qmed, 99)
	out.metrics["peak_rss_mb"] = rss
	out.metrics["p50_ms"] = p50
	out.detail["p99_ms"] = p99
	out.metrics["geomean_ms"] = geomean(qmed)
	out.metrics["throughput_qps"] = tpchQueries / median(roundS)
	out.detail["rounds"] = len(measured)
	out.detail["tpch_round_s"] = median(roundS)
	out.detail["round_s_samples"] = roundS
	out.detail["query_median_ms"] = medians
	return out, nil
}

// setupInProcess opens a DB with opts and loads TPC-H into it
// setupRepeats times, recording the median as setup_s, and returns the
// last DB. Traced, it runs LoadTPCH's own steps so that data generation
// gets a span of its own.
func setupInProcess(opts aqe.Options, tr *tracer, out *outcome) *aqe.DB {
	var db *aqe.DB
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		db = nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		d := aqe.Open(opts)
		if tr == nil {
			d.LoadTPCH(sf)
		} else {
			tg := time.Now()
			cat := tpch.Gen(sf)
			tr.add(tr.id(), 0, "tpch.Gen", tg, time.Now(), nil)
			for _, name := range cat.Names() {
				d.Register(cat.Table(name))
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		db = d
	}
	out.metrics["setup_s"] = median(setups)
	out.detail["setup_s_samples"] = setups
	return db
}

// adhocExec runs and times one TPC-H query. Untraced it is one
// aqe.DB.Exec call; traced it runs stage by stage (what Exec does) so
// every stage's Stats is kept, with a span per query, per stage, and per
// Stats phase.
func adhocExec(db *aqe.DB, qn int, tr *tracer, agg *engineAgg) (adhocQuery, error) {
	q := adhocQuery{qn: qn}
	t0 := time.Now()
	var res *exec.Result
	var stages []stageRun
	if agg == nil {
		res, q.err = db.Exec(db.TPCHQuery(qn))
	} else {
		stages, q.err = execStaged(db, db.TPCHQuery(qn))
		if q.err == nil {
			res = stages[len(stages)-1].res
		}
	}
	t1 := time.Now()
	q.lat = t1.Sub(t0)
	if q.err != nil {
		return q, nil
	}
	q.digest = rowsDigest(res.Rows, res.Types)
	if agg != nil {
		trace := tr.id()
		root := tr.add(trace, 0, "query", t0, t1, map[string]float64{"q": float64(qn)})
		var results []*exec.Result
		for _, s := range stages {
			id := tr.add(trace, root, "stage", s.start, s.end, nil)
			statsSpans(tr, trace, id, s.start, s.res.Stats)
			results = append(results, s.res)
		}
		agg.addQuery(results)
	}
	return q, nil
}

// adhocGeomean is the geometric mean over queries of each query's
// median latency in the given rounds.
func adhocGeomean(rounds [][]adhocQuery) float64 {
	per := map[int][]float64{}
	for _, rs := range rounds {
		for _, q := range rs {
			per[q.qn] = append(per[q.qn], ms(q.lat))
		}
	}
	var meds []float64
	for _, v := range per {
		meds = append(meds, median(v))
	}
	return geomean(meds)
}
