package vc

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zaatar/internal/obs/trace"
)

// Endpoint is the prover side of one driven round, as the driver sees it:
// an in-process Prover (LocalProver), one wire connection, or a farm
// splitting the round across several. An endpoint serves one round at a
// time, Commit first, then Respond.
type Endpoint interface {
	// Commit opens the round with req and returns one commitment per
	// instance, index-aligned with instances.
	Commit(ctx context.Context, req *CommitRequest, instances [][]*big.Int) ([]*Commitment, error)
	// Respond reveals dreq and hands each instance's response to emit as
	// soon as it is ready, so verification overlaps the remaining answers.
	// emit is safe for concurrent use; an error from it aborts the round.
	Respond(ctx context.Context, dreq *DecommitRequest, emit func(i int, r *Response) error) error
}

// Drive runs one round of the batched argument between v and ep:
//
//	commit     ep.Commit answers v's commit request for every instance
//	barrier    nothing further leaves the verifier until every
//	           commitment is in hand (binding; §2.2)
//	decommit   v reveals the query seed and consistency points
//	respond    ep.Respond streams each instance's answers ↓
//	verify     over workers goroutines, overlapped with respond (serial
//	           after it when v.Cfg.NoPipeline is set)
//
// v must hold fresh per-round state (new, Reseed or Fork). Drive records
// the vc.phase series for commit, decommit, respond and verify, the
// matching unlabeled histograms, and the vc.batches, vc.instances and
// vc.rejected counters into v.Cfg.Obs, plus vc.decommit and vc.verify
// trace spans under ctx. The result carries verdicts and phase timings;
// Setup, Total and ProverTimes are the caller's to fill.
func Drive(ctx context.Context, v *Verifier, ep Endpoint, inputs [][]*big.Int, workers int) (*BatchResult, error) {
	n := len(inputs)
	if n == 0 {
		return nil, errors.New("vc: empty batch")
	}
	workers = max(workers, 1)
	reg := v.Cfg.registry()
	phases := reg.HistogramVec(MetricPhase, LabelPhase, LabelBackend)
	backend := v.Backend()
	observe := func(name, phase string, d time.Duration) {
		reg.Histogram(name).Observe(d)
		phases.With(phase, backend).Observe(d)
	}
	res := &BatchResult{
		Accepted: make([]bool, n),
		Reasons:  make([]string, n),
		Outputs:  make([][]*big.Int, n),
		Metrics:  BatchMetrics{Instances: n, Workers: workers},
	}

	start := time.Now()
	cms, err := ep.Commit(ctx, v.Setup(), inputs)
	if err != nil {
		return nil, err
	}
	if len(cms) != n || slices.Contains(cms, nil) {
		return nil, fmt.Errorf("vc: endpoint returned an incomplete commitment set for %d instances", n)
	}
	res.Metrics.Commit = time.Since(start)
	observe(MetricSpanCommit, "commit", res.Metrics.Commit)

	// The barrier: every commitment is in hand, so the seed may go out.
	t0 := time.Now()
	decommitTr := trace.Start(ctx, "vc.decommit")
	dreq, err := v.Decommit()
	decommitTr.End()
	if err != nil {
		return nil, err
	}
	res.Metrics.Decommit = time.Since(t0)
	observe(MetricSpanDecommit, "decommit", res.Metrics.Decommit)

	// Respond and verify: each emitted response queues for the verifiers,
	// so checks overlap the remaining answers; under NoPipeline every
	// instance is verified in order once all responses are in.
	resps := make([]*Response, n)
	ready := make(chan int, n)
	verifyOne := func(i int) {
		vsp := trace.Start(ctx, "vc.verify").WithArg("instance", int64(i))
		t0 := time.Now()
		ok, reason := v.VerifyInstance(ctx, inputs[i], cms[i], resps[i])
		d := time.Since(t0)
		vsp.End()
		observe(MetricSpanVerify, "verify", d)
		atomic.AddInt64((*int64)(&res.Metrics.VerifyTotal), int64(d))
		res.Accepted[i], res.Reasons[i], res.Outputs[i] = ok, reason, cms[i].Output
	}
	var vwg sync.WaitGroup
	for w := 0; w < workers && !v.Cfg.NoPipeline; w++ {
		vwg.Add(1)
		go func() {
			defer vwg.Done()
			for i := range ready {
				if ctx.Err() == nil { // else drain; the round errors out
					verifyOne(i)
				}
			}
		}()
	}
	overlapStart := time.Now()
	var answered atomic.Int64
	rerr := ep.Respond(ctx, dreq, func(i int, r *Response) error {
		if i < 0 || i >= n || r == nil || answered.Add(1) > int64(n) {
			return fmt.Errorf("vc: endpoint emitted a bad response for instance %d", i)
		}
		resps[i] = r
		ready <- i
		return nil
	})
	res.Metrics.Respond = time.Since(overlapStart)
	res.Metrics.ProverWall = time.Since(start)
	observe(MetricSpanRespond, "respond", res.Metrics.Respond)
	close(ready)
	if rerr == nil && answered.Load() != int64(n) {
		rerr = fmt.Errorf("vc: endpoint answered %d of %d instances", answered.Load(), n)
	}
	if v.Cfg.NoPipeline && rerr == nil {
		for i := range inputs {
			verifyOne(i)
		}
	}
	vwg.Wait()
	res.Metrics.RespondVerify = time.Since(overlapStart)
	if rerr != nil {
		return nil, rerr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	reg.Counter(MetricBatches).Inc()
	reg.Counter(MetricInstances).Add(int64(n))
	for _, ok := range res.Accepted {
		if !ok {
			reg.Counter(MetricRejected).Inc()
		}
	}
	return res, nil
}

// DeriveSeed gives round n its own deterministic seed from a fixed base —
// how a kept-alive session reseeds per batch and a farm per shard. An
// empty base stays empty: fresh randomness every round.
func DeriveSeed(base []byte, n int) []byte {
	if len(base) == 0 {
		return nil
	}
	out := make([]byte, 0, len(base)+4)
	out = append(out, base...)
	return append(out, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}
