package vc

import (
	"context"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"zaatar/internal/obs"
	"zaatar/internal/par"
	"zaatar/internal/pcp"
)

// Regression test for the old parallelFor, which kept dispatching every
// remaining index after the first error: the pool must stop feeding and
// drain promptly.
func TestForEachStopsAfterFirstError(t *testing.T) {
	const n, workers = 100, 4
	boom := errors.New("boom")
	var calls atomic.Int32
	err := par.ForEach(context.Background(), n, workers, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); int(c) > n/2 {
		t.Fatalf("pool ran %d of %d indices after the first error; feeder did not stop", c, n)
	}
}

func TestForEachSerialStopsAfterFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls int
	err := par.ForEach(context.Background(), 10, 1, func(i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("serial pool: err = %v, calls = %d (want boom after 4 calls)", err, calls)
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- par.ForEach(ctx, 50, 2, func(i int) error {
			if calls.Add(1) == 1 {
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not drain after cancellation")
	}
	if c := calls.Load(); c > 10 {
		t.Fatalf("pool ran %d indices after cancellation", c)
	}
}

func TestForEachCompletesAll(t *testing.T) {
	var calls atomic.Int32
	seen := make([]atomic.Bool, 64)
	if err := par.ForEach(context.Background(), 64, 8, func(i int) error {
		calls.Add(1)
		seen[i].Store(true)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 64 {
		t.Fatalf("ran %d of 64 indices", calls.Load())
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestRunBatchCancelMidBatch(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, true)
	cfg.Workers = 2
	const beta = 16
	batch := make([][]*big.Int, beta)
	for i := range batch {
		batch[i] = inputsFor(int64(i), 1, 2, 3)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committed atomic.Int32
	testHookAfterCommit = func(int, *Commitment) {
		if committed.Add(1) == 1 {
			cancel()
		}
	}
	defer func() { testHookAfterCommit = nil }()

	_, err := RunBatch(ctx, prog, cfg, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := committed.Load(); int(c) >= beta {
		t.Fatalf("all %d instances committed despite mid-batch cancellation", c)
	}
}

func TestRunBatchPreCancelled(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBatch(ctx, prog, cfg, [][]*big.Int{inputsFor(1, 2, 3, 4)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The pipelined engine (respond→verify overlap, parallel verification) must
// make exactly the decisions of the serial reference path — including
// rejections, injected here by tampering with some commitments.
func TestPipelineMatchesSerial(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, false)
	const beta = 8
	batch := make([][]*big.Int, beta)
	for i := range batch {
		batch[i] = inputsFor(int64(i), int64(-i), 3, 1)
	}
	tampered := map[int]bool{1: true, 5: true}
	testHookAfterCommit = func(i int, cm *Commitment) {
		if tampered[i] {
			cm.Output[0].Add(cm.Output[0], big.NewInt(1))
		}
	}
	defer func() { testHookAfterCommit = nil }()

	serialCfg := cfg
	serialCfg.NoPipeline = true
	serialCfg.Workers = 1
	serial, err := RunBatch(context.Background(), prog, serialCfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	pipeCfg := cfg
	pipeCfg.Workers = 4
	pipe, err := RunBatch(context.Background(), prog, pipeCfg, batch)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < beta; i++ {
		if serial.Accepted[i] != pipe.Accepted[i] || serial.Reasons[i] != pipe.Reasons[i] {
			t.Errorf("instance %d: serial (%v, %q) != pipelined (%v, %q)",
				i, serial.Accepted[i], serial.Reasons[i], pipe.Accepted[i], pipe.Reasons[i])
		}
		if serial.Accepted[i] == tampered[i] {
			t.Errorf("instance %d: accepted = %v, want %v", i, serial.Accepted[i], !tampered[i])
		}
		for j := range serial.Outputs[i] {
			if serial.Outputs[i][j].Cmp(pipe.Outputs[i][j]) != 0 {
				t.Errorf("instance %d output %d: serial %v != pipelined %v",
					i, j, serial.Outputs[i][j], pipe.Outputs[i][j])
			}
		}
	}
}

// barrierEndpoint runs check as the prover is handed the decommit.
type barrierEndpoint struct {
	Endpoint
	check func()
}

func (e barrierEndpoint) Respond(ctx context.Context, dreq *DecommitRequest, emit func(int, *Response) error) error {
	e.check()
	return e.Endpoint.Respond(ctx, dreq, emit)
}

// The soundness barrier: the decommit (query seed reveal) must reach the
// prover only after every instance's commitment, at any worker count.
func TestDecommitBarrierAfterAllCommitments(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, false)
	cfg.Workers = 4
	const beta = 8
	batch := make([][]*big.Int, beta)
	for i := range batch {
		batch[i] = inputsFor(int64(i), 2, 3, 4)
	}
	var committed atomic.Int32
	var barrierChecks atomic.Int32
	testHookAfterCommit = func(int, *Commitment) { committed.Add(1) }
	defer func() { testHookAfterCommit = nil }()
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep := barrierEndpoint{Endpoint: &LocalProver{Prover: p, Workers: cfg.Workers}, check: func() {
		barrierChecks.Add(1)
		if c := committed.Load(); int(c) != beta {
			t.Errorf("decommit reached with %d of %d commitments", c, beta)
		}
	}}
	res, err := Drive(context.Background(), v, ep, batch, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("honest batch rejected: %v", res.Reasons)
	}
	if barrierChecks.Load() != 1 {
		t.Fatalf("decommit barrier crossed %d times, want 1", barrierChecks.Load())
	}
}

// RunBatch must record its counters and phase spans into the configured
// registry.
func TestRunBatchObservability(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, true)
	cfg.Workers = 2
	cfg.Obs = obs.NewRegistry()
	tampered := map[int]bool{0: true}
	testHookAfterCommit = func(i int, cm *Commitment) {
		if tampered[i] {
			cm.Output[0].Add(cm.Output[0], big.NewInt(1))
		}
	}
	defer func() { testHookAfterCommit = nil }()

	batch := [][]*big.Int{inputsFor(1, 2, 3, 4), inputsFor(5, 6, 7, 8), inputsFor(0, 0, 0, 1)}
	if _, err := RunBatch(context.Background(), prog, cfg, batch); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.Counter(MetricBatches).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricBatches, got)
	}
	if got := cfg.Obs.Counter(MetricInstances).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricInstances, got)
	}
	if got := cfg.Obs.Counter(MetricRejected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRejected, got)
	}
	if s := cfg.Obs.Histogram(MetricSpanVerify).Snapshot(); s.Count != 3 {
		t.Errorf("%s.count = %d, want 3", MetricSpanVerify, s.Count)
	}
	for _, name := range []string{MetricSpanSetup, MetricSpanCommit, MetricSpanDecommit, MetricSpanRespond, MetricSpanBatch} {
		if s := cfg.Obs.Histogram(name).Snapshot(); s.Count != 1 {
			t.Errorf("%s.count = %d, want 1", name, s.Count)
		}
	}
}
