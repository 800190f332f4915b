package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"aqe"
	"aqe/internal/exec"
	"aqe/internal/server"
	"aqe/internal/sql"
	"aqe/internal/storage"
	"aqe/internal/tpch"
)

// point-serve: warm prepared statements over the binary protocol against
// an unmodified aqeserver child process. Two connections of one tenant
// run closed loop: each sends its next request as soon as the last row of
// the previous one has arrived. The server runs with a quota of one
// running query per tenant, so every request passes through the admission
// queue and usually waits there for the other connection's request.
// The plan cache always hits, so nothing is compiled once warm: a
// request's time is its scan, its admission wait and the per-request
// work around them (SQL parse, bind and plan, code generation, the
// fingerprint and cache probe, and the wire).

// stmt is one prepared statement of the serving mix.
type stmt struct {
	name string
	sql  string
}

// serveStmts is the serving mix, drawn with equal shares: a point
// lookup, a lookup join and a one-week range aggregate.
var serveStmts = []stmt{
	{"lookup", "SELECT o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = $1"},
	{"join", "SELECT c_name, c_mktsegment, o_totalprice, o_orderdate FROM customer, orders WHERE c_custkey = o_custkey AND o_orderkey = $1"},
	{"range", "SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_extendedprice) AS s FROM lineitem WHERE l_shipdate >= $1 AND l_shipdate < $2 GROUP BY l_returnflag, l_linestatus"},
}

const (
	stmtLookup = iota
	stmtJoin
	stmtRange
)

const (
	serveConns    = 2 // closed-loop connections (nproc on the reference host)
	serveTenant   = "lat"
	warmupPerConn = 150 // unmeasured executions per connection before timing
	replayN       = 300 // traced requests replayed in process for engine counters
)

// Binding domains. Order keys are dense from 1 to the order count, so a
// key drawn uniformly from the domain always finds its order; a range
// week starts on any day from the first ship date to the last full week
// of the data.
var (
	firstWeek = storage.MustParseDate("1992-01-02")
	lastWeek  = storage.MustParseDate("1998-08-01")
)

func orderCount() int64 { return int64(1500000 * sf) }

// serverFlags are the exact flags point-serve starts aqeserver with.
func serverFlags() []string {
	return []string{"-sf", strconv.FormatFloat(sf, 'g', -1, 64),
		"-addr", "127.0.0.1:0", "-binaddr", "127.0.0.1:0", "-ready-line",
		"-max-per-tenant", "1"}
}

// request is one execution of a serving statement and its outcome.
// Offsets are from the closed loop's start.
type request struct {
	stmt int
	arg  int64 // order key, or the first day of the range week

	start, done time.Duration
	ws          server.WireStats
	digest      string
	err         error
}

func (r *request) ok() bool { return r.err == nil }

// latency is the time from sending the request to its last row.
func (r *request) latency() time.Duration { return r.done - r.start }

// args renders the binding as the statement's literals.
func (r *request) args() []string {
	if r.stmt == stmtRange {
		return []string{"DATE '" + storage.FormatDate(r.arg) + "'", "DATE '" + storage.FormatDate(r.arg+7) + "'"}
	}
	return []string{strconv.FormatInt(r.arg, 10)}
}

// newRequest draws a binding of statement st uniformly from its domain.
func newRequest(rng *rand.Rand, st int) request {
	r := request{stmt: st}
	if st == stmtRange {
		r.arg = firstWeek + rng.Int63n(lastWeek-firstWeek)
	} else {
		r.arg = 1 + rng.Int63n(orderCount())
	}
	return r
}

// execute runs r on cl, timing it against the loop start t0; the rows
// are digested after the clock stops.
func execute(cl *server.Client, r *request, t0 time.Time) {
	args := r.args()
	r.start = time.Since(t0)
	res, err := cl.Execute(serveStmts[r.stmt].name, args, 0)
	r.done = time.Since(t0)
	if err != nil {
		r.err = err
		return
	}
	r.ws = res.Stats
	r.digest = rowsDigest(res.Rows, res.Types)
}

// binConns dials n binary-protocol connections under tenant and prepares
// the serving statements on each.
func binConns(addr, tenant string, n int) ([]*server.Client, error) {
	var cls []*server.Client
	for i := 0; i < n; i++ {
		cl, err := server.Dial(addr, tenant)
		if err != nil {
			closeAll(cls)
			return nil, err
		}
		cls = append(cls, cl)
		for _, st := range serveStmts {
			if err := cl.Prepare(st.name, st.sql); err != nil {
				closeAll(cls)
				return nil, fmt.Errorf("prepare %s: %w", st.name, err)
			}
		}
	}
	return cls, nil
}

func closeAll(cls []*server.Client) {
	for _, cl := range cls {
		cl.Close()
	}
}

// warmup runs n requests per connection, one at a time and cycling the
// statements, so every statement is compiled and cached and the
// connections are warm; their results are checked like timed ones.
func warmup(cls []*server.Client, rng *rand.Rand, n int) []request {
	reqs := make([]request, 0, n*len(cls))
	t0 := time.Now()
	for i := 0; i < n*len(cls); i++ {
		r := newRequest(rng, i%len(serveStmts))
		execute(cls[i%len(cls)], &r, t0)
		reqs = append(reqs, r)
	}
	return reqs
}

// closedLoop runs one goroutine per connection for dur. Each draws its
// requests from its own seeded generator, so a seed fixes every
// connection's request sequence. It returns the requests and the start.
func closedLoop(cls []*server.Client, seeds []int64, dur time.Duration) ([]request, time.Time) {
	per := make([][]request, len(cls))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seeds[c]))
			for time.Since(t0) < dur {
				r := newRequest(rng, rng.Intn(len(serveStmts)))
				execute(cls[c], &r, t0)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []request
	for _, p := range per {
		all = append(all, p...)
	}
	return all, t0
}

func runPointServe(cfg config) (*outcome, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("-server is required for %s", cfg.workload)
	}
	out := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.spans = tr
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	flags := serverFlags()
	out.detail["server_flags"] = flags
	srv, setups, err := spawnServers(cfg.server, flags)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	out.metrics["setup_s"] = median(setups)
	out.detail["setup_s_samples"] = setups

	cls, err := binConns(srv.binAddr, serveTenant, serveConns)
	if err != nil {
		return nil, err
	}
	defer closeAll(cls)
	checked := warmup(cls, rng, warmupPerConn)
	seeds := make([]int64, len(cls))
	for c := range seeds {
		seeds[c] = rng.Int63()
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	reqs, t0 := closedLoop(cls, seeds, dur)
	checked = append(checked, reqs...)
	serveLatencyMetrics(out, reqs)

	// The traced run splits the timed requests: the first half stays
	// untraced, the second half gets spans.
	var traced []request
	if tr != nil {
		var base []request
		for i := range reqs {
			if reqs[i].start < dur/2 {
				base = append(base, reqs[i])
				continue
			}
			traced = append(traced, reqs[i])
			if reqs[i].ok() {
				requestSpans(tr, t0, &reqs[i])
			}
		}
		out.metrics["trace.overhead_pct"] = (okP50(traced)/okP50(base) - 1) * 100
	}

	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	out.metrics["peak_rss_mb"] = rss
	if st, err := serverStats(srv.httpAddr); err == nil {
		out.detail["server_stats"] = st
	}
	closeAll(cls)
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop aqeserver: %w (%s)", err, srv.stderr.String())
	}

	// Off the clock: an in-process copy of the data for the oracle.
	tg := time.Now()
	cat := tpch.Gen(sf)
	tr.add(tr.id(), 0, "tpch.Gen", tg, time.Now(), nil)
	refs, err := newServeRefs(cat)
	if err != nil {
		return nil, err
	}
	for i := range checked {
		r := &checked[i]
		out.attempted++
		if !r.ok() || r.digest != refs.digest(r.stmt, r.arg) {
			out.failed++
		}
	}
	if tr != nil {
		if err := serveLayers(tr, cat, traced, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveLatencyMetrics sets the end-to-end latency and throughput metrics
// from the successful timed requests. p50_ms and geomean_ms are the
// median and geometric mean of the three statements' median latencies,
// so neither depends on the shares of the mix. throughput_qps is the
// connection count over the mean latency (Little's law for a closed loop
// without think time): the client's own work between requests does not
// count.
func serveLatencyMetrics(out *outcome, reqs []request) {
	per := make([][]float64, len(serveStmts))
	var lats []float64
	sum := time.Duration(0)
	for i := range reqs {
		if r := &reqs[i]; r.ok() {
			per[r.stmt] = append(per[r.stmt], ms(r.latency()))
			lats = append(lats, ms(r.latency()))
			sum += r.latency()
		}
	}
	var meds []float64
	stmtMed, stmtP99, stmtN := map[string]float64{}, map[string]float64{}, map[string]int{}
	for i, v := range per {
		meds = append(meds, median(v))
		stmtMed[serveStmts[i].name] = median(v)
		stmtP99[serveStmts[i].name], stmtN[serveStmts[i].name] = percentile(v, 99)
	}
	out.metrics["p50_ms"] = median(meds)
	out.metrics["geomean_ms"] = geomean(meds)
	out.metrics["throughput_qps"] = ratio(float64(serveConns*len(lats)), sum.Seconds())
	p99, n := percentile(lats, 99)
	out.detail["p99_ms"] = p99
	out.detail["latency_samples"] = n
	out.detail["p99_samples_beyond"] = beyond(n, 99)
	out.detail["stmt_median_ms"] = stmtMed
	out.detail["stmt_p99_ms"] = stmtP99
	out.detail["stmt_samples"] = stmtN
}

func okP50(reqs []request) float64 {
	var v []float64
	for i := range reqs {
		if reqs[i].ok() {
			v = append(v, ms(reqs[i].latency()))
		}
	}
	return median(v)
}

// requestSpans records one finished request: the root is the wire round
// trip (send to last row), which holds the server's own time, which in
// turn holds admission wait and execution. The server reports durations
// only, so its span is centred in the round trip.
func requestSpans(tr *tracer, t0 time.Time, r *request) {
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	trace := tr.id()
	wire := tr.add(trace, 0, "wire", at(r.start), at(r.done), map[string]float64{"stmt": float64(r.stmt)})
	total := time.Duration(r.ws.TotalNS)
	s0 := at(r.start + (r.latency()-total)/2)
	srv := tr.add(trace, wire, "server", s0, s0.Add(total), map[string]float64{
		"exec_ns": float64(r.ws.ExecNS), "wait_ns": float64(r.ws.WaitNS),
		"translate_ns": float64(r.ws.TranslateNS), "compile_ns": float64(r.ws.CompileNS)})
	w := s0.Add(time.Duration(r.ws.WaitNS))
	tr.add(trace, srv, "sched.wait", s0, w, nil)
	tr.add(trace, srv, "exec", w, w.Add(time.Duration(r.ws.ExecNS)), nil)
}

// serveLayers computes point-serve's per-layer metrics: the wire's own
// view of admission, caching and server time from the traced requests;
// sql.PlanBind plus the compile-layer probes on a sample of them; and the
// engine counters from a replay of traced requests on an in-process
// engine with the server's default options and the engine's trace on.
func serveLayers(tr *tracer, cat *storage.Catalog, traced []request, out *outcome) error {
	var wait []float64
	queued, hits, n := 0, 0, 0
	for i := range traced {
		r := &traced[i]
		if !r.ok() {
			continue
		}
		n++
		wait = append(wait, float64(r.ws.WaitNS)/1e6)
		if r.ws.Queued {
			queued++
		}
		if r.ws.CacheHit {
			hits++
		}
	}
	medSelf := func(name string) float64 {
		var v []float64
		for _, d := range tr.selfTimes(name) {
			v = append(v, us(d))
		}
		return median(v)
	}

	for i := range traced[:min(40, len(traced))] {
		r := &traced[i]
		st := serveStmts[r.stmt]
		args, err := parseArgs(r.args())
		if err != nil {
			return err
		}
		trace := tr.id()
		t0 := time.Now()
		node, _, _, err := sql.PlanBind(st.sql, cat, args)
		if err != nil {
			return fmt.Errorf("plan %s: %w", st.name, err)
		}
		tr.add(trace, 0, "sql.PlanBind", t0, time.Now(), nil)
		if err := probePlan(tr, trace, st.name, node); err != nil {
			return err
		}
	}
	probeMetrics(tr, out.metrics)
	out.metrics["sql.plan_us"] = medianDur(tr.named("sql.PlanBind"), us)
	out.metrics["tpch.gen_s"] = medianDur(tr.named("tpch.Gen"), time.Duration.Seconds)

	db := aqe.Open(aqe.Options{Trace: true})
	for _, name := range cat.Names() {
		db.Register(cat.Table(name))
	}
	sess := db.NewSession(serveTenant)
	for _, st := range serveStmts {
		if err := sess.Prepare(st.name, st.sql); err != nil {
			return err
		}
	}
	run := func(r *request) (*exec.Result, error) {
		args, err := parseArgs(r.args())
		if err != nil {
			return nil, err
		}
		return sess.Execute(context.Background(), serveStmts[r.stmt].name, args)
	}
	for i := range traced[:min(len(serveStmts)*4, len(traced))] {
		if _, err := run(&traced[i]); err != nil { // warm the replay engine like the server was
			return err
		}
	}
	agg := &engineAgg{}
	err := agg.measureRuntime(func() error {
		for i := range traced[:min(replayN, len(traced))] {
			res, err := run(&traced[i])
			if err != nil {
				return err
			}
			agg.addQuery([]*exec.Result{res})
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	agg.metrics(out.metrics)
	// The wire's own view of admission and caching replaces the replay's.
	out.metrics["sched.wait_ms"] = mean(wait)
	out.metrics["sched.queued_share"] = ratio(float64(queued), float64(n))
	out.metrics["exec.cache_hit_ratio"] = ratio(float64(hits), float64(n))
	out.metrics["server.wire_us"] = medSelf("wire")
	out.metrics["server.nonexec_us"] = medSelf("server")
	out.detail["self_time_ms"] = selfTimeTable(tr)
	return nil
}

// parseArgs turns binding literals into prepared-statement values.
func parseArgs(lits []string) ([]*aqe.Value, error) {
	args := make([]*aqe.Value, 0, len(lits))
	for _, lit := range lits {
		v, err := aqe.ParseLiteral(lit)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

// medianDur is the median of the spans' durations in the unit f gives.
func medianDur(spans []span, f func(time.Duration) float64) float64 {
	v := make([]float64, 0, len(spans))
	for _, s := range spans {
		v = append(v, f(s.dur()))
	}
	return median(v)
}
