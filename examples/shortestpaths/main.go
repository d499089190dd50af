// Shortest paths: outsource Floyd-Warshall all-pairs shortest paths (a §5
// benchmark) and demonstrate the parallel prover of Figure 6 — with enough
// workers, the latency of a batch approaches the latency of one instance.
//
// Run with:
//
//	go run ./examples/shortestpaths
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"

	"runtime"

	"zaatar"
	"zaatar/internal/benchprogs"
)

func main() {
	bench := benchprogs.FloydWarshall(6)
	prog, err := zaatar.Compile(bench.Source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Floyd-Warshall m=6: %d constraints (O(m³) per Figure 9)\n\n", prog.Quad.NumConstraints())

	fmt.Printf("machine: %d CPU core(s) — batch speedup is bounded by this\n", runtime.NumCPU())
	rng := rand.New(rand.NewSource(7))
	batch := make([][]*big.Int, 8)
	for i := range batch {
		batch[i] = bench.GenInputs(rng)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		res, err := zaatar.Run(prog, batch,
			zaatar.WithParams(2, 2), zaatar.WithWorkers(workers), zaatar.WithSeed([]byte("apsp")))
		if err != nil {
			log.Fatal(err)
		}
		if !res.AllAccepted() {
			log.Fatalf("batch rejected: %v", res.Reasons)
		}
		fmt.Printf("β=8 with %d workers: prover batch wall time %v\n", workers, res.Metrics.ProverWall)
	}

	// Spot-check one verified distance matrix against the direct algorithm.
	res, err := zaatar.Run(prog, batch[:1], zaatar.WithParams(2, 2))
	if err != nil {
		log.Fatal(err)
	}
	want := bench.Reference(batch[0])
	for i := range want {
		if want[i].Cmp(res.Outputs[0][i]) != 0 {
			log.Fatalf("verified output %d disagrees with local recomputation", i)
		}
	}
	fmt.Println("\nverified distance matrix matches local recomputation ✓")
}
