// Benchmarks mirroring the paper's evaluation, one per table/figure.
// These run at reduced sizes and PCP parameters so `go test -bench=.`
// completes on a laptop; cmd/zaatar-bench regenerates the full tables with
// configurable scale, parameters, and crypto.
//
//	§5.1 table  → BenchmarkTableMicro*
//	Figure 3    → BenchmarkFig3ModelValidation (reports measured/model)
//	Figure 4    → BenchmarkFig4Prover (reports ginger-est metric alongside)
//	Figure 5    → BenchmarkFig5Phases (reports per-phase metrics)
//	Figure 6    → BenchmarkFig6Workers
//	Figure 7    → BenchmarkFig7Breakeven (reports batch sizes as metrics)
//	Figure 8    → BenchmarkFig8Scaling
//	Figure 9    → BenchmarkFig9Encodings (reports sizes as metrics)
//
// Plus ablations for the design decisions DESIGN.md calls out:
//
//	BenchmarkAblationHPipeline — fast (NTT/subproduct-tree) vs naive O(n²)
//	                             construction of H(t)
//	BenchmarkAblationPolyMul   — NTT vs schoolbook multiplication
//	BenchmarkAblationMLEFold   — single-mul vs two-mul sum-check table fold
//	BenchmarkAblationCommitment — prover cost with and without ElGamal
package zaatar

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"zaatar/internal/benchprogs"
	"zaatar/internal/compiler"
	"zaatar/internal/constraint"
	"zaatar/internal/costmodel"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
	"zaatar/internal/poly"
	"zaatar/internal/prg"
	"zaatar/internal/qap"
	"zaatar/internal/vc"
)

var benchCache = struct {
	sync.Mutex
	progs map[string]*compiler.Program
}{progs: map[string]*compiler.Program{}}

func compiled(b *testing.B, bench *benchprogs.Benchmark) *compiler.Program {
	b.Helper()
	benchCache.Lock()
	defer benchCache.Unlock()
	key := fmt.Sprintf("%s-%v", bench.Name, bench.Params)
	if p, ok := benchCache.progs[key]; ok {
		return p
	}
	p, err := compiler.Compile(bench.Field, bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	benchCache.progs[key] = p
	return p
}

func quickCfg(workers int, crypto bool) vc.Config {
	return vc.Config{
		Params:       pcp.TestParams(),
		NoCommitment: !crypto,
		Workers:      workers,
		Seed:         []byte("bench"),
	}
}

// --- §5.1 microbenchmark table ---

func BenchmarkTableMicroFieldMul(b *testing.B) {
	for _, f := range []*field.Field{field.F128(), field.F220()} {
		b.Run(f.Name(), func(b *testing.B) {
			rnd := prg.NewFromSeed([]byte("f"), 0)
			x, y := f.Rand(rnd), f.Rand(rnd)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = f.Mul(x, y)
			}
		})
	}
}

func BenchmarkTableMicroFieldInv(b *testing.B) {
	f := field.F128()
	rnd := prg.NewFromSeed([]byte("i"), 0)
	x := f.RandNonZero(rnd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Inv(f.Add(x, f.One()))
	}
}

func BenchmarkTableMicroPRGElement(b *testing.B) {
	f := field.F128()
	rnd := prg.NewFromSeed([]byte("c"), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Rand(rnd)
	}
}

func BenchmarkTableMicroEncrypt(b *testing.B) {
	f := field.F128()
	g := elgamal.GroupF128()
	rnd := prg.NewFromSeed([]byte("e"), 0)
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		b.Fatal(err)
	}
	m := f.Rand(rnd)
	// Warm up the G and H fixed-base tables; e is the steady-state cost.
	if _, err := sk.Encrypt(f, m, rnd); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(f, m, rnd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableMicroCiphertextOp measures h two ways: "naive" is one
// isolated Add + ScalarMul (how the seed measured it); "kernel" is the
// per-term cost of the multi-exponentiation-backed InnerProduct that the
// prover actually pays, amortized over a proof-sized vector.
func BenchmarkTableMicroCiphertextOp(b *testing.B) {
	f := field.F128()
	g := elgamal.GroupF128()
	rnd := prg.NewFromSeed([]byte("h"), 0)
	sk, _ := g.GenerateKey(rnd)
	ct, _ := sk.Encrypt(f, f.Rand(rnd), rnd)
	b.Run("naive", func(b *testing.B) {
		s := f.Rand(rnd)
		acc := g.One()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc = g.Add(acc, g.ScalarMul(ct, f, s))
		}
	})
	b.Run("kernel", func(b *testing.B) {
		const n = 256
		cts := make([]elgamal.Ciphertext, n)
		for i := range cts {
			cts[i] = ct
		}
		u := f.RandVector(n, rnd)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.InnerProduct(cts, f, u); err != nil {
				b.Fatal(err)
			}
		}
		// ns/op is the whole length-256 product; this is the h comparison.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/term")
	})
}

// --- Figure 3: model validation ---

func BenchmarkFig3ModelValidation(b *testing.B) {
	bench := benchprogs.LCS(10)
	prog := compiled(b, bench)
	rng := rand.New(rand.NewSource(1))
	batch := [][]*big.Int{bench.GenInputs(rng)}
	p := costmodel.Calibrate(bench.Field, nil, 300)
	st := prog.Stats()
	q := costmodel.Quantities{
		ZGinger: st.GingerVars, CGinger: st.GingerConstraints,
		ZZaatar: st.ZaatarVars, CZaatar: st.ZaatarConstraints,
		K: st.K, K2: st.K2, NX: prog.NumInputs(), NY: prog.NumOutputs(),
		Params: pcp.TestParams(),
	}
	b.ResetTimer()
	var measured float64
	for i := 0; i < b.N; i++ {
		res, err := vc.RunBatch(context.Background(), prog, quickCfg(1, false), batch)
		if err != nil {
			b.Fatal(err)
		}
		measured = res.ProverTimes[0].E2E().Seconds()
	}
	model := costmodel.ProverZaatar(p, q)
	b.ReportMetric(measured/model, "measured/model")
}

// --- Figure 4: per-instance prover, Zaatar measured vs Ginger estimated ---

func BenchmarkFig4Prover(b *testing.B) {
	for _, bench := range benchprogs.Small() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			prog := compiled(b, bench)
			rng := rand.New(rand.NewSource(2))
			batch := [][]*big.Int{bench.GenInputs(rng)}
			p := costmodel.Calibrate(bench.Field, nil, 200)
			st := prog.Stats()
			q := costmodel.Quantities{
				ZGinger: st.GingerVars, CGinger: st.GingerConstraints,
				ZZaatar: st.ZaatarVars, CZaatar: st.ZaatarConstraints,
				K: st.K, K2: st.K2, NX: prog.NumInputs(), NY: prog.NumOutputs(),
				Params: pcp.TestParams(),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vc.RunBatch(context.Background(), prog, quickCfg(1, false), batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(costmodel.ProverGinger(p, q), "ginger-est-sec")
		})
	}
}

// --- Figure 5: prover phase decomposition ---

func BenchmarkFig5Phases(b *testing.B) {
	bench := benchprogs.LCS(10)
	prog := compiled(b, bench)
	rng := rand.New(rand.NewSource(3))
	batch := [][]*big.Int{bench.GenInputs(rng)}
	var solve, cons, answer float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := vc.RunBatch(context.Background(), prog, quickCfg(1, false), batch)
		if err != nil {
			b.Fatal(err)
		}
		pt := res.ProverTimes[0]
		solve += pt.Solve.Seconds()
		cons += pt.ConstructU.Seconds()
		answer += pt.Answer.Seconds()
	}
	n := float64(b.N)
	b.ReportMetric(solve/n*1e3, "solve-ms")
	b.ReportMetric(cons/n*1e3, "constructU-ms")
	b.ReportMetric(answer/n*1e3, "answer-ms")
}

// --- Figure 6: parallel prover ---

func BenchmarkFig6Workers(b *testing.B) {
	bench := benchprogs.FloydWarshall(4)
	prog := compiled(b, bench)
	rng := rand.New(rand.NewSource(4))
	batch := make([][]*big.Int, 4)
	for i := range batch {
		batch[i] = bench.GenInputs(rng)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := vc.RunBatch(context.Background(), prog, quickCfg(workers, false), batch)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Metrics.ProverWall.Seconds()*1e3, "batch-wall-ms")
			}
		})
	}
}

// BenchmarkPipelineOverlap measures what the respond→verify overlap buys:
// the same batch with the pipeline disabled (respond everything, then
// verify serially — the pre-pipeline engine) vs the staged pipeline that
// streams responded instances into parallel verification. Crypto is on so
// per-instance verification is substantial enough to overlap.
func BenchmarkPipelineOverlap(b *testing.B) {
	bench := benchprogs.FloydWarshall(4)
	prog := compiled(b, bench)
	rng := rand.New(rand.NewSource(6))
	batch := make([][]*big.Int, 8)
	for i := range batch {
		batch[i] = bench.GenInputs(rng)
	}
	for _, mode := range []struct {
		name       string
		workers    int
		noPipeline bool
	}{
		{"serial", 1, true},
		{"pipeline-4", 4, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := quickCfg(mode.workers, true)
			cfg.NoPipeline = mode.noPipeline
			for i := 0; i < b.N; i++ {
				res, err := vc.RunBatch(context.Background(), prog, cfg, batch)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllAccepted() {
					b.Fatal("batch rejected")
				}
				b.ReportMetric(res.Metrics.RespondVerify.Seconds()*1e3, "respond+verify-ms")
			}
		})
	}
}

// --- Figure 7: break-even batch sizes (cost model at paper sizes) ---

func BenchmarkFig7Breakeven(b *testing.B) {
	bench := benchprogs.LCS(40)
	prog := compiled(b, bench)
	p := costmodel.Calibrate(bench.Field, nil, 200)
	st := prog.Stats()
	q := costmodel.Quantities{
		T:       1e-3,
		ZGinger: st.GingerVars, CGinger: st.GingerConstraints,
		ZZaatar: st.ZaatarVars, CZaatar: st.ZaatarConstraints,
		K: st.K, K2: st.K2, NX: prog.NumInputs(), NY: prog.NumOutputs(),
		Params: pcp.DefaultParams(),
	}
	b.ResetTimer()
	var bz, bg float64
	for i := 0; i < b.N; i++ {
		bz = costmodel.BreakevenZaatar(p, q)
		bg = costmodel.BreakevenGinger(p, q)
	}
	b.ReportMetric(bz, "zaatar-breakeven")
	b.ReportMetric(bg, "ginger-breakeven")
}

// --- Figure 8: prover scaling ---

func BenchmarkFig8Scaling(b *testing.B) {
	sizes := []*benchprogs.Benchmark{
		benchprogs.LCS(6), benchprogs.LCS(12), benchprogs.LCS(24),
	}
	for _, bench := range sizes {
		bench := bench
		b.Run(fmt.Sprintf("lcs-m%d", bench.Params["m"]), func(b *testing.B) {
			prog := compiled(b, bench)
			rng := rand.New(rand.NewSource(5))
			batch := [][]*big.Int{bench.GenInputs(rng)}
			b.ReportMetric(float64(prog.Quad.NumConstraints()), "constraints")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vc.RunBatch(context.Background(), prog, quickCfg(1, false), batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 9: encodings ---

func BenchmarkFig9Encodings(b *testing.B) {
	for _, bench := range benchprogs.Small() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var st compiler.EncodingStats
			for i := 0; i < b.N; i++ {
				prog, err := compiler.Compile(bench.Field, bench.Source)
				if err != nil {
					b.Fatal(err)
				}
				st = prog.Stats()
			}
			b.ReportMetric(float64(st.UGinger), "u-ginger")
			b.ReportMetric(float64(st.UZaatar), "u-zaatar")
			b.ReportMetric(float64(st.K2), "K2")
		})
	}
}

// --- Ablations ---

// BenchmarkAblationHPipeline compares the prover's FFT-based H(t)
// construction (§A.3) against naive O(n²) interpolation — the gap is the
// paper's "nearly linear" prover claim in action.
func BenchmarkAblationHPipeline(b *testing.B) {
	// Naive interpolation is O(|C|³) overall, so this ablation uses a small
	// hand-built system (a 256-step squaring chain); the gap is already two
	// orders of magnitude here and only widens with size.
	f := field.F128()
	const k = 256
	one := f.One()
	qs := &constraint.QuadSystem{NumVars: k + 1, In: []int{1}, Out: []int{k + 1}}
	for i := 1; i <= k; i++ {
		qs.Cons = append(qs.Cons, constraint.QuadConstraint{
			A: constraint.LinComb{{Coeff: one, Var: i}},
			B: constraint.LinComb{{Coeff: one, Var: i}},
			C: constraint.LinComb{{Coeff: one, Var: i + 1}},
		})
	}
	canonical, perm := qs.Normalize()
	q, err := qap.New(f, canonical)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]field.Element, k+2)
	w[0] = one
	cur := f.FromUint64(3)
	w[1] = cur
	for i := 2; i <= k+1; i++ {
		cur = f.Mul(cur, cur)
		w[i] = cur
	}
	w = perm.ApplyToAssignment(w)
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.BuildH(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.BuildHNaive(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPolyMul compares NTT against schoolbook multiplication
// at a proof-sized operand.
func BenchmarkAblationPolyMul(b *testing.B) {
	f := field.F128()
	rnd := prg.NewFromSeed([]byte("pm"), 0)
	x := f.RandVector(2048, rnd)
	y := f.RandVector(2048, rnd)
	b.Run("ntt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			poly.MulNTT(f, x, y)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			poly.MulNaive(f, x, y)
		}
	})
}

// BenchmarkAblationMLEFold compares the sum-check prover's round fold in
// its specialized single-multiplication form (the table is padded to a
// power of two, so R[2k] + r·(R[2k+1]−R[2k]) covers it with no tail)
// against the textbook two-multiplication fold, at a GKR-layer-sized
// table.
func BenchmarkAblationMLEFold(b *testing.B) {
	f := field.F128()
	rnd := prg.NewFromSeed([]byte("mle-fold"), 0)
	const size = 1 << 16
	tbl := f.RandVector(size, rnd)
	r := f.Rand(rnd)
	scratch := make([]field.Element, size)
	b.Run("onemul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, tbl)
			pcp.FoldMLE(f, scratch, r)
		}
	})
	b.Run("twomul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, tbl)
			pcp.FoldMLETwoMul(f, scratch, r)
		}
	})
}

// BenchmarkAblationCommitment measures what the ElGamal commitment adds to
// the prover (the "crypto ops" column of Figure 5).
func BenchmarkAblationCommitment(b *testing.B) {
	bench := benchprogs.LCS(6)
	prog := compiled(b, bench)
	rng := rand.New(rand.NewSource(7))
	batch := [][]*big.Int{bench.GenInputs(rng)}
	for _, crypto := range []bool{false, true} {
		name := "off"
		if crypto {
			name = "on"
		}
		b.Run("crypto-"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vc.RunBatch(context.Background(), prog, quickCfg(1, crypto), batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// multiexpInputs caches the shared ablation fixture: n subgroup elements
// and exponents for the production F128 group (generating 4096 bases costs
// thousands of modexps; do it once across sub-benchmarks).
var multiexpInputs = struct {
	sync.Mutex
	bases, exps map[int][]*big.Int
}{bases: map[int][]*big.Int{}, exps: map[int][]*big.Int{}}

func multiexpFixture(b *testing.B, n int) ([]*big.Int, []*big.Int) {
	b.Helper()
	multiexpInputs.Lock()
	defer multiexpInputs.Unlock()
	if bs, ok := multiexpInputs.bases[n]; ok {
		return bs, multiexpInputs.exps[n]
	}
	g := elgamal.GroupF128()
	f := field.F128()
	rnd := prg.NewFromSeed([]byte("multiexp-ablation"), uint64(n))
	bases := make([]*big.Int, n)
	exps := make([]*big.Int, n)
	for i := range bases {
		bases[i] = new(big.Int).Exp(g.G, f.ToBig(f.Rand(rnd)), g.P)
		exps[i] = f.ToBig(f.Rand(rnd))
	}
	multiexpInputs.bases[n] = bases
	multiexpInputs.exps[n] = exps
	return bases, exps
}

// BenchmarkAblationMultiexp compares the homomorphic inner product's
// engine room across algorithms and sizes: naive exp-and-multiply (one
// full-width modexp per base — the seed's ScalarMul+Add path), Straus
// interleaved windows, Pippenger buckets, and the sharded parallel kernel.
func BenchmarkAblationMultiexp(b *testing.B) {
	g := elgamal.GroupF128()
	algos := []struct {
		name string
		run  func(bases, exps []*big.Int) *big.Int
	}{
		{"naive", g.MultiExpNaive},
		{"straus", g.MultiExpStraus},
		{"pippenger", g.MultiExpPippenger},
		{"pippenger-signed", g.MultiExpSigned},
		{"parallel", func(bases, exps []*big.Int) *big.Int {
			return g.MultiExpParallel(bases, exps, 4)
		}},
	}
	for _, n := range []int{64, 256, 1024, 4096} {
		bases, exps := multiexpFixture(b, n)
		for _, algo := range algos {
			b.Run(fmt.Sprintf("%s/n=%d", algo.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = algo.run(bases, exps)
				}
			})
		}
	}
}

// BenchmarkPreparedInnerProduct compares the commit phase's homomorphic
// inner product with and without a PreparedVector: prepared bases skip the
// per-call Montgomery conversion and get signed-digit windows with their
// batch inversion already paid, which is how the cost amortizes across the
// β instances of a batch that all commit against the same Enc(r).
func BenchmarkPreparedInnerProduct(b *testing.B) {
	g := elgamal.GroupF128()
	f := field.F128()
	rnd := prg.NewFromSeed([]byte("prepared-ip-bench"), 1)
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{256, 1024} {
		m := f.RandVector(n, rnd)
		cts, err := sk.EncryptVector(f, m, rnd)
		if err != nil {
			b.Fatal(err)
		}
		u := f.RandVector(n, rnd)
		b.Run(fmt.Sprintf("unprepared/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.InnerProduct(cts, f, u); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("prepared/n=%d", n), func(b *testing.B) {
			pv := g.Prepare(cts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.InnerProductPrepared(pv, f, u, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocols runs both encodings end to end on the same small
// computation — the measured (not estimated) Zaatar vs Ginger comparison.
func BenchmarkProtocols(b *testing.B) {
	bench := benchprogs.LCS(6)
	prog := compiled(b, bench)
	rng := rand.New(rand.NewSource(8))
	batch := [][]*big.Int{bench.GenInputs(rng)}
	for _, backend := range []string{pcp.BackendZaatar, pcp.BackendGinger} {
		b.Run(backend, func(b *testing.B) {
			cfg := quickCfg(1, false)
			cfg.Backend = backend
			for i := 0; i < b.N; i++ {
				if _, err := vc.RunBatch(context.Background(), prog, cfg, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
