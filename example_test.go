package zaatar_test

import (
	"fmt"
	"math/big"

	"zaatar"
)

// The §2.1 running example, decrement-by-3, through the whole protocol.
// Reduced PCP repetitions keep the example fast; drop WithParams for the
// paper's production soundness (error < 9.6×10⁻⁷).
func Example() {
	prog, err := zaatar.Compile(`
		input x : int32;
		output y : int32;
		y = x - 3;
	`)
	if err != nil {
		panic(err)
	}
	res, err := zaatar.Run(prog,
		[][]*big.Int{{big.NewInt(10)}},
		zaatar.WithParams(2, 2), zaatar.WithSeed([]byte("example")))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Outputs[0][0], res.Accepted[0])
	// Output: 7 true
}

// Batching amortizes the verifier's query setup over many instances of the
// same computation — the regime the paper targets (§2.2).
func Example_batch() {
	prog, err := zaatar.Compile(`
		const N = 4;
		input x[N] : int16;
		output s : int64;
		s = 0;
		for i = 0 to N-1 { s = s + x[i] * x[i]; }
	`)
	if err != nil {
		panic(err)
	}
	batch := [][]*big.Int{
		{big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(4)},
		{big.NewInt(-5), big.NewInt(0), big.NewInt(5), big.NewInt(10)},
	}
	res, err := zaatar.Run(prog, batch,
		zaatar.WithParams(2, 2), zaatar.WithoutCommitment(), zaatar.WithSeed([]byte("b")))
	if err != nil {
		panic(err)
	}
	for i := range batch {
		fmt.Println(res.Outputs[i][0], res.Accepted[i])
	}
	// Output:
	// 30 true
	// 150 true
}

// Stats exposes the Figure 9 encoding quantities that drive the paper's
// cost comparison.
func ExampleProgram_stats() {
	prog, err := zaatar.Compile(`
		input a, b : int32;
		output p : int64;
		p = a * b;
	`)
	if err != nil {
		panic(err)
	}
	st := prog.Stats()
	fmt.Println(st.UZaatar < st.UGinger)
	// Output: true
}
