package main

import (
	"context"
	"math/big"
	"syscall"
	"time"

	"zaatar"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
)

// meter accumulates one measurement window: batch latencies, the
// correctness ledger, session opens and wire bytes. With tc set the window
// is traced: every batch and session open runs under a span of the
// benchmark's own, which the program's spans attach below.
type meter struct {
	tc  *trace.Ctx
	rec *trace.Recorder
	reg *obs.Registry // client-side registry handed to the library (WithMetrics)

	wire wireMeter // listeners of the servers the workload started

	batchWall  []time.Duration
	byProgram  map[string][]time.Duration
	opens      []time.Duration
	openBytes  wireBytes // during session opens
	batchWire  wireBytes // during batches
	windowWire wireBytes // everything in the window, closes included

	ledger ledger

	// Local runs only: the library's own per-batch figures.
	proverE2E   time.Duration // Σ ProverTimes.E2E()
	verifierDur time.Duration // Σ Metrics.Setup + Decommit + VerifyTotal

	elapsed time.Duration
	cpu     time.Duration
}

// ledger is the correctness account behind error_rate.
type ledger struct {
	attempted  int // instances submitted
	verified   int // accepted with outputs equal to the reference
	rejected   int // honest instances the verifier rejected
	mismatched int // accepted instances whose outputs differ from the reference
	batchErrs  int // batches that returned an error
	sessErrs   int // session opens that returned an error
}

// failures counts every failed operation: errored batches and sessions plus
// each instance that was rejected or came back with a wrong output.
func (l ledger) failures() int {
	return l.batchErrs + l.sessErrs + l.rejected + l.mismatched
}

func (l ledger) errorRate() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failures()) / float64(l.attempted)
}

func (l *ledger) add(o ledger) {
	l.attempted += o.attempted
	l.verified += o.verified
	l.rejected += o.rejected
	l.mismatched += o.mismatched
	l.batchErrs += o.batchErrs
	l.sessErrs += o.sessErrs
}

// score books one batch's verdicts against the independent reference. A
// nil accepted slice with err set books the whole batch as errored.
func (l *ledger) score(p *program, batch [][]*big.Int, accepted []bool, outputs [][]*big.Int, err error) {
	l.attempted += len(batch)
	if err != nil || len(accepted) != len(batch) || len(outputs) != len(batch) {
		l.batchErrs++
		return
	}
	for i, in := range batch {
		switch {
		case !accepted[i]:
			l.rejected++
		case !sameOutputs(outputs[i], p.ref(in)):
			l.mismatched++
		default:
			l.verified++
		}
	}
}

func newMeter(traced bool) *meter {
	m := &meter{reg: obs.NewRegistry(), byProgram: map[string][]time.Duration{}}
	if traced {
		// Large enough that no window wraps the ring; a wrap is reported.
		m.rec = trace.NewRecorder(1 << 19)
		m.tc = trace.New(m.rec, clientProc)
	}
	return m
}

// span starts one of the benchmark's own spans and returns the context the
// timed call runs under; both are inert when the window is untraced.
func (m *meter) span(ctx context.Context, name string) (*trace.Span, context.Context) {
	sp := m.tc.Start(name)
	return sp, trace.NewContext(ctx, sp.Ctx())
}

// The paper's production PCP repetition counts, pinned here so a change of
// the library default does not change what is measured.
const rhoLin, rho = 20, 8

// runOpts are the client options every workload shares: production
// parameters, commitments on, verifier randomness from crypto/rand (no
// WithSeed), this window's registry.
func (m *meter) runOpts(p *program, workers int) []zaatar.RunOption {
	return []zaatar.RunOption{
		zaatar.WithBackend(p.backend),
		zaatar.WithWorkers(workers),
		zaatar.WithParams(rhoLin, rho),
		zaatar.WithMetrics(m.reg),
	}
}

// dial times one session open (Dial or DialFarm) with its wire bytes.
func (m *meter) dial(ctx context.Context, open func(context.Context) (*zaatar.Client, error)) (*zaatar.Client, error) {
	sp, sctx := m.span(ctx, spanDial)
	b0 := m.wire.snapshot()
	t0 := time.Now()
	c, err := open(sctx)
	d := time.Since(t0)
	sp.End()
	m.openBytes = m.openBytes.add(m.wire.snapshot().sub(b0))
	if err != nil {
		m.ledger.sessErrs++
		return nil, err
	}
	m.opens = append(m.opens, d)
	return c, nil
}

// remoteBatch runs and scores one batch over a Dial'ed or farm client.
func (m *meter) remoteBatch(ctx context.Context, c *zaatar.Client, p *program, batch [][]*big.Int) error {
	sp, bctx := m.span(ctx, spanBatch)
	b0 := m.wire.snapshot()
	t0 := time.Now()
	res, err := c.RunBatch(bctx, batch)
	d := time.Since(t0)
	sp.End()
	m.batchWire = m.batchWire.add(m.wire.snapshot().sub(b0))
	if err != nil {
		m.ledger.score(p, batch, nil, nil, err)
		return err
	}
	m.ledger.score(p, batch, res.Accepted, res.Outputs, nil)
	m.batchWall = append(m.batchWall, d)
	m.byProgram[p.name] = append(m.byProgram[p.name], d)
	return nil
}

// window runs unit back to back until at least d has passed, ending on a
// unit boundary, and records the elapsed wall and process CPU time.
func (m *meter) window(ctx context.Context, d time.Duration, unit func(context.Context, *meter)) {
	cpu0, b0 := cpuTime(), m.wire.snapshot()
	t0 := time.Now()
	for time.Since(t0) < d && ctx.Err() == nil {
		unit(ctx, m)
	}
	m.elapsed = time.Since(t0)
	m.cpu = cpuTime() - cpu0
	m.windowWire = m.wire.snapshot().sub(b0)
}

// cpuTime is the process's user+system CPU time: both ends of the protocol
// run in this process, so it covers verifier and prover alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
