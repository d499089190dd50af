package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"zaatar/internal/benchprogs"
	"zaatar/internal/costmodel"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// BackendLane is one proof backend's measured batch in the backend
// comparison: the usual phase walls plus the mean per-instance prover cost
// (everything the prover does for one instance — solve, proof
// construction, crypto where the lane has any, and query answering).
type BackendLane struct {
	Backend     string  `json:"backend"`
	SetupMs     float64 `json:"setup_ms"`
	CommitMs    float64 `json:"commit_ms"`
	RespondMs   float64 `json:"respond_ms"`
	VerifyMs    float64 `json:"verify_total_ms"`
	TotalMs     float64 `json:"total_ms"`
	ProverE2EMs float64 `json:"prover_e2e_ms"`
}

// BackendResult is the backend-comparison experiment: the same layered
// batch proved under the Zaatar (commitment) lane and the sum-check
// (transcript) lane, with the cost model's pick alongside. The headline
// number is ProverSpeedup — how many times cheaper the sum-check prover is
// per instance, which is the point of the cheap-prover lane: no ciphertext
// operation appears anywhere on it.
type BackendResult struct {
	Bench         string         `json:"bench"`
	Params        map[string]int `json:"params"`
	Instances     int            `json:"instances"`
	Crypto        bool           `json:"crypto"`
	Recommended   string         `json:"recommended"`
	Lanes         []BackendLane  `json:"lanes"`
	ProverSpeedup float64        `json:"prover_speedup"`
}

// matmulFor sizes the backend experiment's matrix chain per scale. The
// paper benchmarks all branch (comparisons produce nondeterministic
// advice), so the layered workload is a dedicated pure-arithmetic chain.
func matmulFor(s Scale) *benchprogs.Benchmark {
	switch s {
	case ScaleSmall:
		return benchprogs.MatMulChain(2, 2)
	case ScalePaper:
		return benchprogs.MatMulChain(8, 4)
	default:
		return benchprogs.MatMulChain(4, 3)
	}
}

// RunBackend measures the matmul-chain batch under each lane and reports
// the per-instance prover gap.
func RunBackend(o Options, beta int) (*BackendResult, error) {
	if beta < 1 {
		beta = 1
	}
	bench := matmulFor(o.Scale)
	prog, err := compileBench(bench)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	batch := genBatch(bench, rng, beta)
	r := &BackendResult{
		Bench:       bench.Name,
		Params:      bench.Params,
		Instances:   beta,
		Crypto:      o.Crypto,
		Recommended: costmodel.RecommendBackend(prog.Field, prog.Ginger, prog.Quad),
	}
	for _, name := range []string{pcp.BackendZaatar, pcp.BackendSumcheck} {
		cfg := o.vcConfig(name)
		res, err := vc.RunBatch(context.Background(), prog, cfg, batch)
		if err != nil {
			return nil, fmt.Errorf("experiments: backend %s: %w", name, err)
		}
		if !res.AllAccepted() {
			return nil, fmt.Errorf("experiments: backend %s rejected honest batch: %v", name, res.Reasons)
		}
		m := res.Metrics
		var e2e time.Duration
		for _, pt := range res.ProverTimes {
			e2e += pt.E2E()
		}
		r.Lanes = append(r.Lanes, BackendLane{
			Backend:     name,
			SetupMs:     msOf(m.Setup),
			CommitMs:    msOf(m.Commit),
			RespondMs:   msOf(m.Respond),
			VerifyMs:    msOf(m.VerifyTotal),
			TotalMs:     msOf(m.Total),
			ProverE2EMs: msOf(e2e) / float64(m.Instances),
		})
	}
	if s := r.Lanes[1].ProverE2EMs; s > 0 {
		r.ProverSpeedup = r.Lanes[0].ProverE2EMs / s
	}
	return r, nil
}

// RenderBackend prints the comparison as a table plus the headline ratio.
func RenderBackend(w io.Writer, r *BackendResult) {
	fmt.Fprintf(w, "backend comparison: %s %v, β=%d, crypto=%v (cost model recommends %s)\n",
		r.Bench, r.Params, r.Instances, r.Crypto, r.Recommended)
	tb := newTable("backend", "setup", "commit", "respond", "verify", "total", "prover/inst")
	for _, l := range r.Lanes {
		tb.add(l.Backend,
			fmt.Sprintf("%.1fms", l.SetupMs),
			fmt.Sprintf("%.1fms", l.CommitMs),
			fmt.Sprintf("%.1fms", l.RespondMs),
			fmt.Sprintf("%.1fms", l.VerifyMs),
			fmt.Sprintf("%.1fms", l.TotalMs),
			fmt.Sprintf("%.3fms", l.ProverE2EMs))
	}
	tb.render(w)
	fmt.Fprintf(w, "sum-check prover is %.1f× cheaper per instance than the Zaatar commit+respond lane\n",
		r.ProverSpeedup)
}
