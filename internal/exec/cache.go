package exec

import (
	"container/list"
	"sync"

	"aqe/internal/jit"
	"aqe/internal/vector"
	"aqe/internal/vm"
)

// planCache is the engine-level compilation cache: it maps plan
// fingerprints to the translated bytecode of every pipeline (plus
// queryStart), to the compiled closure of each JIT tier and to the
// vectorized kernel, together with the morsel rates earlier executions
// measured on each engine. A repeated query skips translation entirely
// and starts each pipeline on the engine measured fastest instead of
// re-climbing bytecode → unoptimized → optimized.
//
// Entries are evicted in LRU order once the byte budget is exceeded. The
// budget tracks an estimate of the retained footprint (bytecode
// instructions, constant pools, closure graphs); a background compilation
// finishing after its query can still grow an entry, which may in turn
// evict colder ones.
type planCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // of *cachedPlan, front = most recent
	idx    map[Fingerprint]*list.Element

	hits, misses, evictions int64
}

// cachedPlan is one cache entry. Entries are mutated only under the cache
// mutex; lookups hand out immutable snapshots.
type cachedPlan struct {
	fp         Fingerprint
	queryStart *vm.Program
	pipes      []cachedPipe
	bytes      int64
	// hits counts lookups that found the entry; a snapshot carries the
	// ordinal of its own hit, which paces warmStart's re-measurement.
	hits int64
}

// cachedPipe holds the artifacts of one pipeline: the bytecode program,
// the compiled artifact per JIT tier (indexed by jit.Level — the native
// slot holds the assembled machine code, so warm runs start in tier 6),
// and the vectorized kernel. Kernels are address-indirect like compiled
// closures (column/dictionary/literal bases re-registered per run resolve
// through the run's segment table), so fingerprint-equal plans share them.
type cachedPipe struct {
	prog     *vm.Program
	compiled [3]*jit.Compiled
	vec      *vector.Kernel

	// rate is the measured throughput of each Level on this pipeline:
	// tuples per second of morsel busy time, smoothed over the adaptive
	// executions that drained it (0 = never measured). A warm adaptive run
	// starts the pipeline on the fastest measured engine (warmStart).
	rate [numLevels]float64
	// pick is the level the last steady warm start chose (-1 = none yet);
	// warmStart keeps it until another engine measures clearly faster.
	pick Level
	// filling marks the one background native compile a warm hit launches
	// for a pipeline without cached native code; nativeFailed latches a
	// failed native compilation so neither the fill nor the controller
	// retries it.
	filling      bool
	nativeFailed bool
}

// remeasureEvery is the cadence, in hits of a cache entry, at which a warm
// start runs each pipeline on its runner-up engine instead of its fastest,
// so one noisy sample cannot lock the choice in.
const remeasureEvery = 16

// keepMargin is how much faster than the incumbent another engine must
// measure before warm starts move to it: the smoothed rates of two close
// engines otherwise cross back and forth on noise alone.
const keepMargin = 1.2

// warmStart picks the level a warm adaptive execution starts pipeline p
// in. The candidates are the engines with a ready artifact: cached native
// code (when the platform has a backend and native is not latched
// failed), the vector kernel (vecOK), cached optimized or unoptimized
// code, and bytecode. An unmeasured candidate is tried first; otherwise
// the fastest measured one wins, the incumbent p.pick staying until
// another measures keepMargin faster, and every remeasureEvery-th hit
// runs the runner-up instead. steady reports a pick of the fastest (or
// incumbent) engine rather than a trial or a re-measurement.
func warmStart(p *cachedPipe, nativeSupported, vecOK bool, hit int64) (l Level, steady bool) {
	var avail [numLevels]bool
	avail[LevelBytecode] = true
	avail[LevelUnoptimized] = p.compiled[jit.Unoptimized] != nil
	avail[LevelOptimized] = p.compiled[jit.Optimized] != nil
	avail[LevelNative] = nativeSupported && !p.nativeFailed && p.compiled[jit.Native] != nil
	avail[LevelVector] = vecOK
	best, second := Level(-1), Level(-1)
	for l := LevelVector; l >= LevelBytecode; l-- {
		if !avail[l] {
			continue
		}
		if p.rate[l] == 0 {
			return l, false
		}
		switch {
		case best < 0 || p.rate[l] > p.rate[best]:
			best, second = l, best
		case second < 0 || p.rate[l] > p.rate[second]:
			second = l
		}
	}
	if inc := p.pick; inc >= 0 && inc != best && avail[inc] && p.rate[best] < p.rate[inc]*keepMargin {
		best, second = inc, best
	}
	if second >= 0 && hit%remeasureEvery == 0 {
		return second, false
	}
	return best, true
}

// CacheStats is a snapshot of the compilation-cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	Budget    int64
}

func newPlanCache(budget int64) *planCache {
	return &planCache{
		budget: budget,
		lru:    list.New(),
		idx:    make(map[Fingerprint]*list.Element),
	}
}

// lookup returns a snapshot of the entry for fp, or nil, and counts the
// hit or miss. The snapshot's pipes slice is a copy: concurrent
// addCompiled calls mutate the cached entry, never the snapshot.
func (c *planCache) lookup(fp Fingerprint) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	ent := el.Value.(*cachedPlan)
	ent.hits++
	snap := &cachedPlan{fp: ent.fp, queryStart: ent.queryStart, bytes: ent.bytes, hits: ent.hits}
	snap.pipes = append([]cachedPipe(nil), ent.pipes...)
	return snap
}

// insert adds a freshly translated plan. A concurrent duplicate insert
// keeps the existing entry (its compiled tiers may already be populated).
func (c *planCache) insert(fp Fingerprint, queryStart *vm.Program, progs []*vm.Program) {
	ent := &cachedPlan{fp: fp, queryStart: queryStart}
	ent.bytes = int64(queryStart.SizeBytes())
	for _, p := range progs {
		ent.pipes = append(ent.pipes, cachedPipe{prog: p, pick: -1})
		ent.bytes += int64(p.SizeBytes())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.idx[fp]; ok {
		return
	}
	c.idx[fp] = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	c.evict()
}

// addCompiled attaches a compiled closure to a cached pipeline tier. It is
// a no-op if the entry was evicted or the tier is already populated (the
// first finished compilation wins; both artifacts are equivalent).
func (c *planCache) addCompiled(fp Fingerprint, pipe int, level jit.Level, comp *jit.Compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, p := c.pipe(fp, pipe); p != nil {
		c.attach(ent, p, level, comp)
	}
}

// pipe returns the live entry and its pipeline, or a nil pipeline once
// the entry is gone. Called with the mutex held.
func (c *planCache) pipe(fp Fingerprint, pipe int) (*cachedPlan, *cachedPipe) {
	el, ok := c.idx[fp]
	if !ok {
		return nil, nil
	}
	ent := el.Value.(*cachedPlan)
	if pipe >= len(ent.pipes) {
		return nil, nil
	}
	return ent, &ent.pipes[pipe]
}

// attach publishes comp into p's tier slot unless it is already filled,
// charging ent's footprint. Called with the mutex held.
func (c *planCache) attach(ent *cachedPlan, p *cachedPipe, level jit.Level, comp *jit.Compiled) {
	if p.compiled[level] != nil {
		return
	}
	p.compiled[level] = comp
	n := int64(comp.SizeBytes())
	ent.bytes += n
	c.bytes += n
	c.evict()
}

// vecKernelBytes is the footprint estimate of a cached vectorized kernel:
// the spec's expression trees and lookup maps are small compared to
// bytecode programs or closure graphs.
const vecKernelBytes = 2048

// addVector attaches a vectorized kernel to a cached pipeline slot. First
// finished compilation wins, like addCompiled.
func (c *planCache) addVector(fp Fingerprint, pipe int, k *vector.Kernel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, p := c.pipe(fp, pipe)
	if p == nil || p.vec != nil {
		return
	}
	p.vec = k
	ent.bytes += vecKernelBytes
	c.bytes += vecKernelBytes
	c.evict()
}

// rateWeight is the weight of a new sample in a pipeline's smoothed
// per-level rate once the sample covers rateFullTuples tuples; smaller
// samples weigh proportionally less, so one noisy execution — or a run of
// a pipeline over a handful of tuples, whose rate is all overhead — moves
// an established rate little.
const (
	rateWeight     = 0.25
	rateFullTuples = 4096
)

// noteRates folds one drained execution of pipeline pipe into its memo:
// per level, the tuples its morsels processed and their busy time (levels
// the run did not execute carry zeros and keep their rate). A steady warm
// start (pick >= 0) becomes the incumbent warmStart compares against.
func (c *planCache) noteRates(fp Fingerprint, pipe int, tuples, nanos *[numLevels]int64, pick Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, p := c.pipe(fp, pipe)
	if p == nil {
		return
	}
	for l := range p.rate {
		if tuples[l] <= 0 || nanos[l] <= 0 {
			continue
		}
		r := float64(tuples[l]) / float64(nanos[l]) * 1e9
		if p.rate[l] == 0 {
			p.rate[l] = r
			continue
		}
		w := rateWeight * min(1, float64(tuples[l])/rateFullTuples)
		p.rate[l] += w * (r - p.rate[l])
	}
	if pick >= 0 {
		p.pick = pick
	}
}

// beginFill claims the background native compile of pipeline pipe. It
// fails when native code is already cached, a fill is running, or native
// compilation of the pipeline has failed before.
func (c *planCache) beginFill(fp Fingerprint, pipe int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, p := c.pipe(fp, pipe)
	if p == nil || p.filling || p.nativeFailed || p.compiled[jit.Native] != nil {
		return false
	}
	p.filling = true
	return true
}

// finishNative records the outcome of a native compilation of pipeline
// pipe and releases its fill claim: the machine code is published, or a
// nil comp latches the failure.
func (c *planCache) finishNative(fp Fingerprint, pipe int, comp *jit.Compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, p := c.pipe(fp, pipe)
	if p == nil {
		return
	}
	p.filling = false
	if comp == nil {
		p.nativeFailed = true
		return
	}
	c.attach(ent, p, jit.Native, comp)
}

// evict drops LRU entries until the budget is respected. Called with the
// mutex held. An entry larger than the whole budget is evicted too: the
// budget is a hard cap, not a guideline.
func (c *planCache) evict() {
	for c.bytes > c.budget && c.lru.Len() > 0 {
		el := c.lru.Back()
		ent := el.Value.(*cachedPlan)
		c.lru.Remove(el)
		delete(c.idx, ent.fp)
		c.bytes -= ent.bytes
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.lru.Len(), Bytes: c.bytes, Budget: c.budget,
	}
}
