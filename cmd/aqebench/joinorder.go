package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"aqe/internal/exec"
	"aqe/internal/opt"
	"aqe/internal/plan"
	"aqe/internal/synth"
	"aqe/internal/tpch"
)

// joinorder measures the cost-based join orderer (internal/opt) two ways:
// TPC-H multi-join queries under the hand-built order, the optimizer's
// order, and random valid orders; then the deliberately misestimated
// synthetic star query, where mid-query replanning recovers most of the
// gap between the misestimated order and the corrected plan.
func joinorder() {
	cat := catalog(*sfFlag)
	newEng := func() *exec.Engine {
		return exec.New(exec.Options{Workers: *workers, Mode: exec.ModeOptimized,
			Cost: exec.Native(), CacheBytes: -1})
	}
	timePlan := func(node plan.Node, name string) time.Duration {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			e := newEng()
			t0 := time.Now()
			if _, err := e.RunPlan(node, name); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}

	fmt.Printf("TPC-H join orders, SF %g, %d workers, optimized mode (best of 3, total ms)\n",
		*sfFlag, *workers)
	fmt.Printf("%-6s %10s %10s %10s %10s  %s\n",
		"query", "hand", "optimizer", "random-1", "random-2", "optimizer order")
	for _, qn := range []int{3, 5, 10} {
		hand := timePlan(tpch.Query(cat, qn).Stages[0].Build(nil), "hand")
		lg, ok := tpch.Logical(cat, qn)
		if !ok {
			log.Fatalf("Q%d has no logical form", qn)
		}
		prep, err := opt.Order(lg)
		if err != nil {
			log.Fatal(err)
		}
		optT := timePlan(prep.Root, "opt")
		rng := rand.New(rand.NewSource(int64(qn)))
		var randT [2]time.Duration
		for i := range randT {
			root, err := opt.RandomOrder(lg, rng.Intn)
			if err != nil {
				log.Fatal(err)
			}
			randT[i] = timePlan(root, "rand")
		}
		fmt.Printf("Q%-5d %10.2f %10.2f %10.2f %10.2f  %s\n",
			qn, ms(hand), ms(optT), ms(randT[0]), ms(randT[1]),
			strings.Join(prep.OrderNames(), " ⋈ "))
	}

	// Misestimated star query: dimension A's skewed filter is estimated
	// ~10^4x too low, so the optimizer builds it first; the observed
	// cardinality at its hash-table finalize triggers a mid-query replan.
	factRows := int(1.6e7 * *sfFlag)
	if factRows < 20000 {
		factRows = 20000
	}
	fact, dimA, dimB := synth.MisestimateTables(factRows)
	lg := synth.MisestimateLogical(fact, dimA, dimB)
	ctx := context.Background()

	runReplan := func(threshold float64) (time.Duration, *exec.Result, *opt.Prepared) {
		var best time.Duration
		var bestRes *exec.Result
		var bestPrep *opt.Prepared
		for rep := 0; rep < 3; rep++ {
			prep, err := opt.Order(lg)
			if err != nil {
				log.Fatal(err)
			}
			e := exec.New(exec.Options{Workers: *workers, Mode: exec.ModeOptimized,
				Cost: exec.Native(), ReplanThreshold: threshold, CacheBytes: -1})
			t0 := time.Now()
			res, err := e.RunPlanReplan(ctx, prep.Root, "misestimate", prep)
			if err != nil {
				log.Fatal(err)
			}
			if d := time.Since(t0); rep == 0 || d < best {
				best, bestRes, bestPrep = d, res, prep
			}
		}
		return best, bestRes, bestPrep
	}

	// (a) stuck with the misestimated order: no replanner attached.
	prep, err := opt.Order(lg)
	if err != nil {
		log.Fatal(err)
	}
	misNames := strings.Join(prep.OrderNames(), " ⋈ ")
	noReplan := timePlan(prep.Root, "mis-noreplan")

	// (b) adaptive: replans when the observation crosses the threshold.
	replanned, res, prepB := runReplan(0) // 0 = engine default threshold

	// (c) oracle: the corrected plan prepB converged on, run from cold.
	corrected := timePlan(prepB.Root, "mis-corrected")

	fmt.Printf("\nmisestimated star query (fact %d rows; initial order %s)\n",
		factRows, misNames)
	fmt.Printf("%-28s %10s %10s %12s\n", "variant", "total ms", "replans", "est-err")
	fmt.Printf("%-28s %10.2f %10s %12s\n", "misestimated, no replan", ms(noReplan), "-", "-")
	fmt.Printf("%-28s %10.2f %10d %12.1fx\n", "adaptive (mid-query replan)",
		ms(replanned), res.Stats.Replans, res.Stats.EstCardErr)
	fmt.Printf("%-28s %10.2f %10s %12s  (%s)\n", "corrected order, from cold",
		ms(corrected), "-", "-", strings.Join(prepB.OrderNames(), " ⋈ "))
	fmt.Printf("replan speedup over misestimated order: %.2fx\n",
		float64(noReplan)/float64(replanned))
}
