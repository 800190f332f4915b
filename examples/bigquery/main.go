// bigquery reproduces §V-E: machine-generated queries with hundreds of
// aggregate expressions, where optimized compilation's super-linear cost
// explodes while bytecode translation stays linear — "fast translation
// into bytecode is indispensable for these workloads".
package main

import (
	"fmt"
	"log"

	"aqe"
	"aqe/internal/exec"
	"aqe/internal/synth"
)

func main() {
	table := synth.Table(50000)
	eng := exec.New(exec.Options{Workers: 4, Mode: exec.ModeAdaptive, Cost: exec.Paper(), CacheBytes: -1})

	fmt.Println("machine-generated wide-aggregate queries (paper §V-E), adaptive execution:")
	for _, nAggs := range []int{10, 100, 400, 1000} {
		node := synth.WideAggPlan(table, nAggs)
		res, err := eng.RunPlan(node, fmt.Sprintf("wide-%d", nAggs))
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fmt.Printf("  %4d aggregates: %6d IR instructions, bytecode in %8.2f ms, total %8.1f ms, %d groups\n",
			nAggs, st.Instrs, st.Translate.Seconds()*1e3, st.Total.Seconds()*1e3, len(res.Rows))
	}
	fmt.Println("\nwith the paper's LLVM cost model, optimized compilation of the largest query")
	model := exec.Paper()
	fmt.Printf("would take ~%.1f s up front; adaptive execution starts immediately and only\n",
		model.OptTime(90000).Seconds())
	fmt.Println("compiles a pipeline when its extrapolated remaining work justifies it.")
	_ = aqe.ModeAdaptive
}
