package vc

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/obs/trace"
)

// BatchMetrics is the structured per-phase measurement record for one
// batch. The same spans are aggregated across batches in the obs registry
// (see the metric name constants); this struct is the single-batch view
// that the figures and the -stats output consume.
type BatchMetrics struct {
	// Instances is the batch size β; Workers the pool size used.
	Instances int
	Workers   int

	// Setup is the verifier's amortized query/key construction time.
	Setup time.Duration
	// Commit is the wall-clock of pipeline stage 1: solve, build proofs,
	// commit — parallel across instances, barrier at the end.
	Commit time.Duration
	// Decommit is stage 2: building the decommit message (runs only after
	// every commitment; the soundness barrier).
	Decommit time.Duration
	// Respond is the wall-clock of stage 3: answering queries, parallel,
	// streaming finished instances into stage 4.
	Respond time.Duration
	// RespondVerify is the combined wall-clock of the overlapped stages
	// 3+4 — with the pipeline this is less than Respond + VerifyTotal.
	RespondVerify time.Duration
	// VerifyTotal is the summed per-instance verification time
	// (consistency + PCP checks) across the batch.
	VerifyTotal time.Duration
	// ProverWall spans stages 1–3: commit start to the last response —
	// with enough workers, close to one instance's latency (§5.2,
	// Figure 6).
	ProverWall time.Duration
	// Total is the whole RunBatch wall-clock.
	Total time.Duration
}

// Metric names exported to the obs registry by Drive and RunBatch,
// documented in docs/PROTOCOL.md ("Pipeline stages").
const (
	MetricBatches      = "vc.batches"   // counter: batches driven
	MetricInstances    = "vc.instances" // counter: instances proved
	MetricRejected     = "vc.rejected"  // counter: instances rejected
	MetricSpanSetup    = "vc.setup"     // histogram: verifier setup per batch
	MetricSpanCommit   = "vc.commit"    // histogram: stage-1 wall per batch
	MetricSpanDecommit = "vc.decommit"  // histogram: stage-2 wall per batch
	MetricSpanRespond  = "vc.respond"   // histogram: stage-3 wall per batch
	MetricSpanVerify   = "vc.verify"    // histogram: per-instance verification
	MetricSpanBatch    = "vc.batch"     // histogram: whole batch wall
	// MetricPhase is the labeled per-phase histogram vector: one series per
	// {phase, backend} pair, phase ∈ {setup, commit, decommit, respond,
	// verify, batch}. The unlabeled vc.* histograms above remain the
	// aggregate views.
	MetricPhase = "vc.phase"
	// MetricBackendBatches prefixes a per-backend batch counter; the full
	// series name is the prefix plus the backend name, e.g.
	// "pcp.backend.batches.sumcheck".
	MetricBackendBatches = "pcp.backend.batches."
)

// Label keys of the MetricPhase vector (see docs/PROTOCOL.md §7.1).
const (
	LabelPhase   = "phase"
	LabelBackend = "backend"
)

// BatchResult aggregates one batch's outcomes and measurements.
type BatchResult struct {
	Accepted []bool
	Reasons  []string
	Outputs  [][]*big.Int

	// ProverTimes decomposes each instance's prover cost (Figure 5).
	ProverTimes []ProverTimes
	// Metrics holds the structured per-phase measurements.
	Metrics BatchMetrics
}

// AllAccepted reports whether every instance verified.
func (r *BatchResult) AllAccepted() bool {
	for _, ok := range r.Accepted {
		if !ok {
			return false
		}
	}
	return len(r.Accepted) > 0
}

// testHookAfterCommit, nil outside tests, runs after each instance's
// commitment is produced by a LocalProver (and may tamper with it).
var testHookAfterCommit func(i int, cm *Commitment)

// RunBatch drives the full protocol for a batch of instances of one
// computation in process: a fresh verifier, and a LocalProver spreading
// the prover's work over cfg.Workers goroutines (the paper's distributed
// prover; Figure 6), run through Drive as one round. Cancelling ctx aborts
// promptly between per-instance steps and surfaces ctx.Err().
func RunBatch(ctx context.Context, prog *compiler.Program, cfg Config, inputs [][]*big.Int) (*BatchResult, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("vc: empty batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reg := cfg.registry()
	batchSpan := reg.StartSpan(MetricSpanBatch)
	// If the caller's context carries a trace, every phase, per-instance
	// step, and kernel call below becomes a span under one batch root.
	// With no trace attached all of this is nil no-ops (zero allocations).
	batchTr, ctx := trace.Child(ctx, "vc.batch")
	batchTr.WithArg("instances", int64(len(inputs)))
	defer batchTr.End()

	setupSpan := reg.StartSpan(MetricSpanSetup)
	setupTr, setupCtx := trace.Child(ctx, "vc.setup")
	verifier, err := NewVerifierCtx(setupCtx, prog, cfg)
	if err != nil {
		return nil, err
	}
	prover, err := NewProver(prog, cfg)
	if err != nil {
		return nil, err
	}
	setupTr.End()
	// The labeled per-phase view: same wall-clock numbers as the vc.* span
	// histograms, broken out by {phase, backend} for per-tenant attribution.
	phases := reg.HistogramVec(MetricPhase, LabelPhase, LabelBackend)
	backend := verifier.Backend()
	phases.With("setup", backend).Observe(setupSpan.End())

	local := &LocalProver{Prover: prover, Workers: cfg.Workers}
	res, err := Drive(ctx, verifier, local, inputs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	res.Metrics.Setup = verifier.SetupDuration()
	res.ProverTimes = local.Times()
	res.Metrics.Total = batchSpan.End()
	phases.With("batch", backend).Observe(res.Metrics.Total)
	reg.Counter(MetricBackendBatches + backend).Inc()
	return res, nil
}
