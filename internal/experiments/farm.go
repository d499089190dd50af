package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"

	"zaatar/internal/elgamal"
	"zaatar/internal/farm"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/transport"
)

// FarmResult measures the prover-farm coordinator against a single-prover
// session on the same in-process workload: same program, same batch, same
// machine. On a host with enough cores the farm's win is parallel shard
// proving; on a starved host (NumCPU near 1) the workers time-slice one
// core and the delta isolates the coordinator's own overhead — per-shard
// verifier key generation, scheduling, and the extra wire round trips.
type FarmResult struct {
	Benchmark string `json:"benchmark"`
	Beta      int    `json:"beta"`
	Workers   int    `json:"workers"`
	NumCPU    int    `json:"num_cpu"`

	// SingleWallMs runs the batch over one session with one prover.
	// FarmWallMs runs the identical batch through the farm coordinator over
	// Workers loopback workers. CoordinatorOverheadMs is their difference —
	// meaningful as pure overhead only when the workers share one core
	// (NumCPU ≤ Workers); with spare cores it mixes in the parallel win and
	// can go negative.
	SingleWallMs          float64 `json:"single_wall_ms"`
	FarmWallMs            float64 `json:"farm_wall_ms"`
	CoordinatorOverheadMs float64 `json:"coordinator_overhead_ms"`

	// Scheduling evidence from the farm.* counters.
	Shards   int64 `json:"shards"`
	Requeued int64 `json:"requeued"`
	Stolen   int64 `json:"stolen"`
}

// RunFarm runs the farm experiment on the scale's first benchmark: a
// single-prover reference session, then the same batch through a
// two-worker loopback farm.
func RunFarm(o Options, beta int) (*FarmResult, error) {
	if beta < 1 {
		beta = 1
	}
	const workers = 2
	bench := Benchmarks(o.Scale)[0]
	rng := rand.New(rand.NewSource(o.Seed))
	batch := genBatch(bench, rng, beta)

	hello := transport.Hello{
		Source:       bench.Source,
		Field220:     bench.Field == field.F220(),
		RhoLin:       o.Params.RhoLin,
		Rho:          o.Params.Rho,
		NoCommitment: !o.Crypto,
	}
	copts := transport.ClientOptions{Seed: []byte(fmt.Sprintf("farm-%d", o.Seed))}
	if o.Crypto {
		copts.Group = elgamal.GroupFor(bench.Field)
	}
	dial := func(n int) ([]net.Conn, error) {
		conns := make([]net.Conn, n)
		for i := range conns {
			svc := transport.NewService(transport.ServiceOptions{Workers: o.Workers, Obs: obs.NewRegistry()})
			client, server := net.Pipe()
			go func() { _ = svc.ServeConn(context.Background(), server) }()
			conns[i] = client
		}
		return conns, nil
	}
	ctx := context.Background()
	res := &FarmResult{Benchmark: bench.Name, Beta: beta, Workers: workers, NumCPU: runtime.NumCPU()}

	// Single-prover reference.
	conns, err := dial(1)
	if err != nil {
		return nil, err
	}
	sess, err := transport.NewSession(ctx, conns, hello, copts)
	if err != nil {
		return nil, err
	}
	res.SingleWallMs, err = wallMs(func() error {
		r, err := sess.RunBatch(ctx, batch)
		if err == nil && !r.AllAccepted() {
			err = fmt.Errorf("single-prover batch rejected: %v", r.Reasons)
		}
		return err
	})
	sess.Close()
	if err != nil {
		return nil, err
	}

	// The same batch through the coordinator.
	conns, err = dial(workers)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	fcopts := copts
	fcopts.Workers, fcopts.Obs = o.Workers, reg
	fcopts.Addrs = make([]string, workers)
	for i := range fcopts.Addrs {
		fcopts.Addrs[i] = fmt.Sprintf("worker-%d", i)
	}
	sess, err = transport.NewSession(ctx, conns, hello, fcopts)
	if err != nil {
		return nil, err
	}
	fm, err := farm.New(sess, farm.Options{})
	if err != nil {
		sess.Close()
		return nil, err
	}
	res.FarmWallMs, err = wallMs(func() error {
		r, err := fm.RunBatch(ctx, batch)
		if err == nil && !r.AllAccepted() {
			err = fmt.Errorf("farm batch rejected: %v", r.Reasons)
		}
		return err
	})
	fm.Close()
	if err != nil {
		return nil, err
	}
	res.CoordinatorOverheadMs = res.FarmWallMs - res.SingleWallMs
	for i := 0; i < workers; i++ {
		res.Shards += reg.CounterVec(farm.MetricShards, farm.LabelWorker).With(fmt.Sprintf("worker-%d", i)).Value()
	}
	res.Requeued = reg.Counter(farm.MetricShardRequeued).Value()
	res.Stolen = reg.Counter(farm.MetricShardStolen).Value()
	return res, nil
}

// RenderFarm prints the farm experiment with the honesty caveat about
// core starvation spelled out.
func RenderFarm(w io.Writer, r *FarmResult) {
	fmt.Fprintf(w, "prover farm: coordinator vs single prover (%s, β=%d, %d workers, %d cpu)\n\n",
		r.Benchmark, r.Beta, r.Workers, r.NumCPU)
	tb := newTable("configuration", "batch wall", "shards", "requeued", "stolen")
	tb.add("single prover", fmtDur(r.SingleWallMs/1e3), "1", "—", "—")
	tb.add(fmt.Sprintf("farm (%d workers)", r.Workers), fmtDur(r.FarmWallMs/1e3),
		fmt.Sprintf("%d", r.Shards), fmt.Sprintf("%d", r.Requeued), fmt.Sprintf("%d", r.Stolen))
	tb.render(w)
	fmt.Fprintf(w, "\ncoordinator delta: %+.1f ms per batch\n", r.CoordinatorOverheadMs)
	if r.NumCPU <= r.Workers {
		fmt.Fprintf(w, "note: %d workers time-slice %d cpu — the delta is pure coordinator overhead (per-shard key generation, scheduling, extra round trips), not a parallelism measurement\n",
			r.Workers, r.NumCPU)
	}
}
