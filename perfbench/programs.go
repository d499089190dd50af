package main

import (
	"math/big"
	"math/rand"
)

// The measured programs are frozen here — source, seeded input generator
// and independent reference — so that edits to internal/benchprogs or
// examples/progs cannot change what the benchmark measures. lcs10Source is
// byte-for-byte what benchprogs.LCS(10) generated when the benchmark was
// defined; the other three are examples/progs/{decrement,lookup,matmul4}.zr
// of the same commit.
type program struct {
	name    string
	backend string // proof lane the workload runs it on
	source  string
	gen     func(rng *rand.Rand) []*big.Int
	ref     func(in []*big.Int) []*big.Int
}

const lcs10Source = `
const M = 10;
input s[M] : int8;
input t[M] : int8;
output len : int32;
var dp[M][M] : int32;
var up, left, diag : int32;
for i = 0 to M-1 {
	for j = 0 to M-1 {
		if (i == 0) { diag = 0; } else { if (j == 0) { diag = 0; } else { diag = dp[i-1][j-1]; } }
		if (i == 0) { up = 0; } else { up = dp[i-1][j]; }
		if (j == 0) { left = 0; } else { left = dp[i][j-1]; }
		if (s[i] == t[j]) {
			dp[i][j] = diag + 1;
		} else {
			if (up < left) { dp[i][j] = left; } else { dp[i][j] = up; }
		}
	}
}
len = dp[M-1][M-1];
`

const decrementSource = `// The running example of §2.1: y = x - 3.
// Its equivalent constraint set is {X - Z = 0, Y - (Z - 3) = 0}.
input x : int32;
output y : int32;
y = x - 3;
`

const lookupSource = `// Table lookup with a runtime index — demonstrates the §5.4 cost of
// indirect memory access: the read expands into an equality-mux chain of
// O(N) constraints.
const N = 8;
input table[N] : int32;
input idx : int8;
output value : int32;

value = table[idx];
`

const matmul4Source = `// A chain of three 4x4 matrix multiplications: C = ((A*B)*A)*A.
// Pure additions and multiplications — no comparisons — so the constraint
// system stratifies into a layered circuit and the sum-check backend
// accepts it (zaatar-run -backend sumcheck, or -backend auto, which the
// cost model resolves to sumcheck for this program).
const N = 4;
input a[N][N] : int16;
input b[N][N] : int16;
output c[N][N] : int64;
var t[N][N], u[N][N] : int64;
var acc : int64;
for i = 0 to N-1 {
	for j = 0 to N-1 {
		acc = 0;
		for k = 0 to N-1 { acc = acc + a[i][k] * b[k][j]; }
		t[i][j] = acc;
	}
}
for l = 2 to 3 {
	for i = 0 to N-1 {
		for j = 0 to N-1 {
			acc = 0;
			for k = 0 to N-1 { acc = acc + t[i][k] * a[k][j]; }
			u[i][j] = acc;
		}
	}
	for i = 0 to N-1 { for j = 0 to N-1 { t[i][j] = u[i][j]; } }
}
for i = 0 to N-1 { for j = 0 to N-1 { c[i][j] = t[i][j]; } }
`

// Input ranges keep every value non-negative and inside its declared
// width, so each generated instance is one an honest prover can prove.

var lcs10 = program{
	name:    "lcs10",
	backend: "zaatar",
	source:  lcs10Source,
	gen: func(rng *rand.Rand) []*big.Int {
		in := make([]*big.Int, 20)
		for i := range in {
			in[i] = big.NewInt(int64(rng.Intn(4)))
		}
		return in
	},
	ref: func(in []*big.Int) []*big.Int {
		const m = 10
		v := int64s(in)
		s, t := v[:m], v[m:]
		var dp [m + 1][m + 1]int64
		for i := 1; i <= m; i++ {
			for j := 1; j <= m; j++ {
				switch {
				case s[i-1] == t[j-1]:
					dp[i][j] = dp[i-1][j-1] + 1
				case dp[i-1][j] >= dp[i][j-1]:
					dp[i][j] = dp[i-1][j]
				default:
					dp[i][j] = dp[i][j-1]
				}
			}
		}
		return bigs(dp[m][m])
	},
}

var decrement = program{
	name:    "decrement",
	backend: "zaatar",
	source:  decrementSource,
	gen: func(rng *rand.Rand) []*big.Int {
		return []*big.Int{big.NewInt(3 + rng.Int63n(1<<30))}
	},
	ref: func(in []*big.Int) []*big.Int {
		return bigs(in[0].Int64() - 3)
	},
}

var lookup = program{
	name:    "lookup",
	backend: "zaatar",
	source:  lookupSource,
	gen: func(rng *rand.Rand) []*big.Int {
		in := make([]*big.Int, 9)
		for i := 0; i < 8; i++ {
			in[i] = big.NewInt(rng.Int63n(1 << 30))
		}
		in[8] = big.NewInt(int64(rng.Intn(8)))
		return in
	},
	ref: func(in []*big.Int) []*big.Int {
		return bigs(in[in[8].Int64()].Int64())
	},
}

var matmul4 = program{
	name:    "matmul4",
	backend: "sumcheck",
	source:  matmul4Source,
	gen: func(rng *rand.Rand) []*big.Int {
		in := make([]*big.Int, 32)
		for i := range in {
			in[i] = big.NewInt(int64(rng.Intn(8)))
		}
		return in
	},
	ref: func(in []*big.Int) []*big.Int {
		const n = 4
		v := int64s(in)
		var a, b [n][n]int64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j], b[i][j] = v[i*n+j], v[n*n+i*n+j]
			}
		}
		mul := func(x, y [n][n]int64) (z [n][n]int64) {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					for k := 0; k < n; k++ {
						z[i][j] += x[i][k] * y[k][j]
					}
				}
			}
			return z
		}
		c := mul(mul(mul(a, b), a), a)
		out := make([]int64, 0, n*n)
		for i := 0; i < n; i++ {
			out = append(out, c[i][:]...)
		}
		return bigs(out...)
	},
}

// genBatch draws beta fresh instances of p.
func genBatch(p *program, rng *rand.Rand, beta int) [][]*big.Int {
	b := make([][]*big.Int, beta)
	for i := range b {
		b[i] = p.gen(rng)
	}
	return b
}

// sameOutputs reports whether a claimed output vector equals the reference.
func sameOutputs(got, want []*big.Int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] == nil || got[i].Cmp(want[i]) != 0 {
			return false
		}
	}
	return true
}

func int64s(in []*big.Int) []int64 {
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = v.Int64()
	}
	return out
}

func bigs(vs ...int64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = big.NewInt(v)
	}
	return out
}
