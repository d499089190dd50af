package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"zaatar"
	"zaatar/internal/obs"
)

// workload is one closed loop with a single client. setup builds from
// scratch everything the loop needs and reports how long compiling its
// programs took; bind re-opens long-lived sessions under a new window
// (traced or not, with that window's registry); unit runs one step of the
// loop; close stops every server and session the workload started and
// waits for them.
type workload interface {
	setup(ctx context.Context, m *meter) (compile time.Duration, err error)
	bind(ctx context.Context, m *meter) error
	unit(ctx context.Context, m *meter)
	servers() []*obs.Registry
	close()
}

var workloadNames = []string{"local-batch", "wire-sessions", "farm-shards"}

func newWorkload(name string, rng *rand.Rand, dir string) (workload, error) {
	switch name {
	case "local-batch":
		return &localBatch{rng: rng}, nil
	case "wire-sessions":
		return &wireSessions{rng: rng, dir: dir}, nil
	case "farm-shards":
		return &farmShards{rng: rng}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func compileAll(ps ...*program) (map[string]*zaatar.Program, time.Duration, error) {
	out := map[string]*zaatar.Program{}
	t0 := time.Now()
	for _, p := range ps {
		prog, err := zaatar.Compile(p.source)
		if err != nil {
			return nil, 0, fmt.Errorf("compiling %s: %w", p.name, err)
		}
		out[p.name] = prog
	}
	return out, time.Since(t0), nil
}

// server is one in-process zaatar.Serve (or ServeWorker) on a loopback
// listener wrapped for byte counting.
type server struct {
	ln     *countingListener
	reg    *obs.Registry
	cancel context.CancelFunc
	done   chan error
}

func startServer(worker bool, opts ...zaatar.ServerOption) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &server{ln: newCountingListener(ln), reg: obs.NewRegistry(), done: make(chan error, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	opts = append(opts, zaatar.WithServerWorkers(1), zaatar.WithServerMetrics(s.reg))
	serve := zaatar.Serve
	if worker {
		serve = zaatar.ServeWorker
	}
	go func() { s.done <- serve(ctx, s.ln, opts...) }()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// stop cancels the server and waits until Serve has drained and returned.
func (s *server) stop() {
	s.cancel()
	<-s.done
}

// ---- local-batch ---------------------------------------------------------

// localBatch runs back-to-back in-process zaatar.RunContext batches of
// LCS m=10, β=8, two prover workers: the shape of the paper's Figures 3
// and 5, where the cryptographic and polynomial kernels do the work.
type localBatch struct {
	rng  *rand.Rand
	prog *zaatar.Program
}

const localBeta = 8

func (w *localBatch) setup(ctx context.Context, m *meter) (time.Duration, error) {
	progs, d, err := compileAll(&lcs10)
	if err != nil {
		return 0, err
	}
	w.prog = progs[lcs10.name]
	// One verifier set-up builds the group's lazy fixed-base tables, which
	// every later batch reuses.
	if _, err := zaatar.NewVerifier(w.prog, m.runOpts(&lcs10, 2)...); err != nil {
		return 0, fmt.Errorf("warming up: %w", err)
	}
	return d, nil
}

func (w *localBatch) bind(context.Context, *meter) error { return nil }

func (w *localBatch) unit(ctx context.Context, m *meter) {
	batch := genBatch(&lcs10, w.rng, localBeta)
	sp, bctx := m.span(ctx, spanBatch)
	t0 := time.Now()
	res, err := zaatar.RunContext(bctx, w.prog, batch, m.runOpts(&lcs10, 2)...)
	d := time.Since(t0)
	sp.End()
	if err != nil {
		m.ledger.score(&lcs10, batch, nil, nil, err)
		return
	}
	m.ledger.score(&lcs10, batch, res.Accepted, res.Outputs, nil)
	m.batchWall = append(m.batchWall, d)
	m.byProgram[lcs10.name] = append(m.byProgram[lcs10.name], d)
	for _, t := range res.ProverTimes {
		m.proverE2E += t.E2E()
	}
	m.verifierDur += res.Metrics.Setup + res.Metrics.Decommit + res.Metrics.VerifyTotal
}

func (w *localBatch) servers() []*obs.Registry { return nil }
func (w *localBatch) close()                   {}

// ---- wire-sessions -------------------------------------------------------

// wireSessions runs short keep-alive sessions against one in-process
// zaatar.Serve: Dial, 8 batches of β=4, Close, cycling through two
// Zaatar-lane programs and one sum-check-lane program. Per-batch fixed
// costs dominate: the hash-first hello, per-batch reseed and key
// generation, gob framing, round trips and the program-cache lookup.
type wireSessions struct {
	rng   *rand.Rand
	dir   string // the run directory the artifact store goes in
	srv   *server
	store string
}

const (
	wireBeta     = 4
	wireSessionN = 8 // batches per session
)

var wirePrograms = []*program{&decrement, &lookup, &matmul4}

func (w *wireSessions) setup(ctx context.Context, m *meter) (time.Duration, error) {
	_, d, err := compileAll(wirePrograms...)
	if err != nil {
		return 0, err
	}
	if w.store, err = os.MkdirTemp(w.dir, "store-"); err != nil {
		return 0, fmt.Errorf("creating the artifact store: %w", err)
	}
	if w.srv, err = startServer(false, zaatar.WithStore(w.store)); err != nil {
		return 0, err
	}
	m.wire = wireMeter{w.srv.ln}
	// The first session per program pays the server's cold compile and
	// store write, and its batch warms the lane's lazy tables.
	for _, p := range wirePrograms {
		if err := w.session(ctx, m, p, 1); err != nil {
			return 0, fmt.Errorf("first %s session: %w", p.name, err)
		}
	}
	return d, nil
}

func (w *wireSessions) bind(_ context.Context, m *meter) error {
	m.wire = wireMeter{w.srv.ln}
	return nil
}

// session opens one session for p, runs n batches and closes it.
func (w *wireSessions) session(ctx context.Context, m *meter, p *program, n int) error {
	c, err := m.dial(ctx, func(ctx context.Context) (*zaatar.Client, error) {
		return zaatar.Dial(ctx, w.srv.addr(), p.source, m.runOpts(p, 1)...)
	})
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if err := m.remoteBatch(ctx, c, p, genBatch(p, w.rng, wireBeta)); err != nil {
			return err // the session may be mid-protocol: abandon it
		}
	}
	return nil
}

// unit is one cycle: a session for each program.
func (w *wireSessions) unit(ctx context.Context, m *meter) {
	for _, p := range wirePrograms {
		_ = w.session(ctx, m, p, wireSessionN) // failures are booked in m.ledger
	}
}

func (w *wireSessions) servers() []*obs.Registry {
	if w.srv == nil {
		return nil
	}
	return []*obs.Registry{w.srv.reg}
}

func (w *wireSessions) close() {
	if w.srv != nil {
		w.srv.stop()
	}
	if w.store != "" {
		_ = os.RemoveAll(w.store)
	}
}

// ---- farm-shards ---------------------------------------------------------

// farmShards drives one DialFarm client over two in-process ServeWorker
// listeners: β=16 batches of lookup in shards of 4 with affinity routing.
// It is the only workload that runs the farm coordinator (routing,
// per-shard verifier fork and reseed, work stealing) and multi-leg
// transport; with two workers on two cores it measures coordination, not
// scale-out.
type farmShards struct {
	rng     *rand.Rand
	workers []*server
	client  *zaatar.Client
}

const (
	farmBeta      = 16
	farmShardSize = 4
	farmWorkers   = 2
)

func (w *farmShards) setup(ctx context.Context, m *meter) (time.Duration, error) {
	_, d, err := compileAll(&lookup)
	if err != nil {
		return 0, err
	}
	for i := 0; i < farmWorkers; i++ {
		s, err := startServer(true)
		if err != nil {
			return 0, err
		}
		w.workers = append(w.workers, s)
	}
	if err := w.bind(ctx, m); err != nil {
		return 0, err
	}
	// The first batch warms the workers' lazy tables and the verifier pool.
	if err := m.remoteBatch(ctx, w.client, &lookup, genBatch(&lookup, w.rng, farmBeta)); err != nil {
		return 0, fmt.Errorf("first farm batch: %w", err)
	}
	return d, nil
}

// bind (re)dials the farm under m, so the session's trace and registry are
// the window's own.
func (w *farmShards) bind(ctx context.Context, m *meter) error {
	if w.client != nil {
		_ = w.client.Close()
		w.client = nil
	}
	m.wire = nil
	addrs := make([]string, len(w.workers))
	for i, s := range w.workers {
		addrs[i] = s.addr()
		m.wire = append(m.wire, s.ln)
	}
	c, err := m.dial(ctx, func(ctx context.Context) (*zaatar.Client, error) {
		opts := append(m.runOpts(&lookup, 1), zaatar.WithFarmShardSize(farmShardSize), zaatar.WithFarmRouting(zaatar.FarmAffinity))
		return zaatar.DialFarm(ctx, addrs, lookup.source, opts...)
	})
	if err != nil {
		return fmt.Errorf("dialing the farm: %w", err)
	}
	w.client = c
	return nil
}

func (w *farmShards) unit(ctx context.Context, m *meter) {
	if w.client == nil {
		if w.bind(ctx, m) != nil {
			return // booked in m.ledger
		}
	}
	if err := m.remoteBatch(ctx, w.client, &lookup, genBatch(&lookup, w.rng, farmBeta)); err != nil {
		// After an error the farm's legs may be mid-protocol: re-dial.
		_ = w.client.Close()
		w.client = nil
	}
}

func (w *farmShards) servers() []*obs.Registry {
	var out []*obs.Registry
	for _, s := range w.workers {
		out = append(out, s.reg)
	}
	return out
}

func (w *farmShards) close() {
	if w.client != nil {
		_ = w.client.Close()
	}
	for _, s := range w.workers {
		s.stop()
	}
}

// runDir is where a run keeps its on-disk state: inside the checkout,
// next to the benchmark's build output, removed when the run ends.
func runDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", fmt.Sprintf("run-%d-", os.Getpid()))
}
