package experiments

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"

	"zaatar/internal/benchprogs"
	"zaatar/internal/compiler"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// genBatch draws beta instances' inputs for a benchmark.
func genBatch(b *benchprogs.Benchmark, rng *rand.Rand, beta int) [][]*big.Int {
	out := make([][]*big.Int, beta)
	for i := range out {
		out[i] = b.GenInputs(rng)
	}
	return out
}

// runZaatarBatch runs a measured Zaatar batch and verifies it end to end.
func runZaatarBatch(prog *compiler.Program, b *benchprogs.Benchmark, o Options, rng *rand.Rand, beta int) (*vc.BatchResult, error) {
	res, err := vc.RunBatch(context.Background(), prog, o.vcConfig(pcp.BackendZaatar), genBatch(b, rng, beta))
	if err != nil {
		return nil, err
	}
	if !res.AllAccepted() {
		return nil, fmt.Errorf("experiments: honest batch rejected: %v", res.Reasons)
	}
	return res, nil
}
