// Package farm coordinates one verifier over a fleet of prover workers.
//
// A Farm wraps a multi-leg transport.Session (one leg per worker) and
// shards each batch across the legs: every shard is an independent wire
// mini-batch — its own commit request, its own query seed, its own
// commitment key — driven by vc.Drive as one round over one leg
// (Session.Leg). Per-shard keys are what make the scheme sound
// without a global barrier: the workers are collectively one adversary, and
// each shard's seed is revealed only after that shard's commitments are in,
// exactly the per-batch discipline of Verifier.Reseed. A requeued or stolen
// shard therefore replays on another worker with fresh randomness, never
// re-exposing a seed whose commitments the dead worker already saw.
//
// Scheduling is affinity-first with work stealing: shard i prefers the
// worker ranked i mod N in the session's leg order (zaatar.DialFarm orders
// legs by rendezvous hash of the program, so the same workers front the
// ranking across restarts and keep their program caches warm), and an idle
// worker steals any queued shard. When a worker dies mid-shard the shard is
// requeued (bounded by Options.ShardRetries) and the leg is retired; a
// worker that reports a prover-side error is healthy, so that error is
// fatal rather than retried.
//
// When a batch is narrower than the fleet and WideCommit asks for it, the
// farm instead drives the batch as one round whose commitment multiexp is
// split across k workers with vc.SplitCommitRequest: each worker commits
// against a masked share of Enc(r) and the partial commitments fold back
// into the single-prover commitments (vc.CombineCommitments). Only the
// commitment crypto splits; each cooperating worker still solves the
// constraints and builds H(t) itself.
package farm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"sync"

	"zaatar/internal/obs"
	"zaatar/internal/transport"
	"zaatar/internal/vc"
)

// Farm metric names (see PROTOCOL.md §9).
const (
	// MetricShards counts shards dispatched, labeled by worker address.
	MetricShards = "farm.shards"
	// MetricShardRequeued counts shards requeued after a worker died
	// mid-shard (wide mode counts retried instances here too).
	MetricShardRequeued = "farm.shard.requeued"
	// MetricShardStolen counts shards run by a non-preferred worker.
	MetricShardStolen = "farm.shard.stolen"
	// MetricWorkerFailures counts workers retired after a leg failure.
	MetricWorkerFailures = "farm.worker.failures"
	// MetricWorkersLive gauges how many legs are still serving.
	MetricWorkersLive = "farm.workers.live"
	// MetricWideSplits counts instances whose commitment was split across
	// cooperating workers (wide mode).
	MetricWideSplits = "farm.wide.splits"
	// MetricWorkerUp is the gauge a worker process sets to 1 while serving
	// (zaatar.ServeWorker registers it).
	MetricWorkerUp = "farm.worker.up"
	// MetricSpanBatch / MetricSpanShard time one farm batch / one shard.
	MetricSpanBatch = "farm.batch"
	MetricSpanShard = "farm.shard"
	// LabelWorker is the worker-address label on MetricShards.
	LabelWorker = "worker"
)

// Options tune the coordinator. The zero value is usable.
type Options struct {
	// ShardRetries bounds how many times one shard may be requeued after a
	// worker death before the batch fails; 0 means the default (2), and a
	// negative value disables requeueing.
	ShardRetries int
	// ShardSize fixes the instances per shard; 0 sizes shards so each live
	// worker expects about two (small enough to steal, large enough to
	// amortize the per-shard key generation).
	ShardSize int
	// WideCommit, when ≥ 2, splits each instance's commitment multiexp
	// across up to that many workers whenever a batch has fewer instances
	// than the fleet has live workers (and commitments are on). Off by
	// default: wide mode trades k× solve/H(t) recomputation for 1/k of the
	// commitment crypto per worker, a good trade only when the multiexp
	// dominates.
	WideCommit int
}

// Farm drives a multi-worker prover session. Create with New; RunBatch
// then schedules each batch across the live workers. RunBatch calls are
// serialized internally, like Session.RunBatch. The session's options
// carry over: Seed fixes shard query seeds (each shard appends a counter),
// Workers is the verification parallelism within one shard, and farm.*
// metrics and worker-death records go to its Obs and Logger.
type Farm struct {
	// The embedded session supplies Program, WireVersion, Backend,
	// SetupDuration and Close, so a Farm serves wherever a Session does.
	*transport.Session
	opts Options
	reg  *obs.Registry
	log  *slog.Logger

	runMu sync.Mutex // one batch in flight at a time

	mu    sync.Mutex
	alive []bool
	seq   int // shard seed counter, monotone across batches

	vmu   sync.Mutex
	vmade int
	vpool chan *pooledVerifier
}

// pooledVerifier is a free-list entry; used marks state already consumed by
// a shard (or abandoned mid-shard), so the next acquire must Reseed before
// handing it out.
type pooledVerifier struct {
	v    *vc.Verifier
	used bool
}

// New wraps an open session in a coordinator: each shard is one more
// keep-alive batch on its leg.
func New(sess *transport.Session, opts Options) (*Farm, error) {
	copts := sess.Options()
	f := &Farm{
		Session: sess,
		opts:    opts,
		reg:     cmp.Or(copts.Obs, obs.Default()),
		log:     obs.OrNop(copts.Logger),
		alive:   make([]bool, sess.NumLegs()),
		vpool:   make(chan *pooledVerifier, sess.NumLegs()),
		vmade:   1,
	}
	for i := range f.alive {
		f.alive[i] = true
	}
	// The dial-time verifier is pool member #1, fresh from the handshake.
	f.vpool <- &pooledVerifier{v: sess.Verifier()}
	f.reg.RegisterGauge(MetricWorkersLive, func() float64 { return float64(f.LiveWorkers()) })
	return f, nil
}

// LiveWorkers reports how many workers are still serving.
func (f *Farm) LiveWorkers() int { return len(f.liveLegs()) }

// retries resolves Options.ShardRetries (0 = default 2, negative = none).
func (f *Farm) retries() int {
	if f.opts.ShardRetries == 0 {
		return 2
	}
	return max(f.opts.ShardRetries, 0)
}

func (f *Farm) nextSeed() []byte {
	f.mu.Lock()
	n := f.seq
	f.seq++
	f.mu.Unlock()
	return vc.DeriveSeed(f.Options().Seed, n)
}

// acquire hands out a verifier with fresh per-shard state: a pooled one
// (reseeded if its state was consumed), or a new Fork of the dial-time
// verifier while the pool is below the fleet size.
func (f *Farm) acquire(ctx context.Context) (*pooledVerifier, error) {
	var pv *pooledVerifier
	select {
	case pv = <-f.vpool:
	default:
		f.vmu.Lock()
		if f.vmade < f.NumLegs() {
			f.vmade++
			f.vmu.Unlock()
			nv, err := f.Verifier().Fork(ctx, f.nextSeed())
			if err != nil {
				f.vmu.Lock()
				f.vmade--
				f.vmu.Unlock()
				return nil, err
			}
			return &pooledVerifier{v: nv}, nil
		}
		f.vmu.Unlock()
		select {
		case pv = <-f.vpool:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if pv.used {
		if err := pv.v.Reseed(ctx, f.nextSeed()); err != nil {
			f.release(pv)
			return nil, err
		}
		pv.used = false
	}
	return pv, nil
}

func (f *Farm) release(pv *pooledVerifier) {
	pv.used = true
	f.vpool <- pv
}

// liveLegs snapshots the indices of legs still serving, in rank order.
func (f *Farm) liveLegs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.alive))
	for i, ok := range f.alive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// workerDied retires leg i: the liveness bit drops, the connection closes,
// and the failure counter ticks. Idempotent per leg.
func (f *Farm) workerDied(i int, cause error) {
	f.mu.Lock()
	wasAlive := f.alive[i]
	f.alive[i] = false
	f.mu.Unlock()
	if !wasAlive {
		return
	}
	f.reg.Counter(MetricWorkerFailures).Inc()
	_ = f.CloseLeg(i)
	f.log.Warn("farm worker died", "worker", f.LegAddr(i), "leg", i, "err", cause)
}

// isWorkerDeath classifies a shard failure: a *FarmError that is not a
// *RemoteError and not the caller's cancellation means the leg itself broke
// (connection loss, malformed frame) — the worker is gone and its shard can
// be requeued elsewhere. A RemoteError came from a live worker's prover and
// would fail identically on any worker, so it is fatal.
func isWorkerDeath(ctx context.Context, err error) (*transport.FarmError, bool) {
	var fe *transport.FarmError
	if !errors.As(err, &fe) {
		return nil, false
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return nil, false
	}
	if ctx.Err() != nil {
		return nil, false
	}
	return fe, true
}

// RunBatch proves and verifies one batch across the farm. The result is
// index-aligned with batch, identical in shape to Session.RunBatch. On a
// nil error every instance was proved and verified (acceptance per instance
// is in the result); a *transport.FarmError (possibly wrapped) names the
// worker behind an unrecoverable leg failure. After a non-nil error the
// session's legs may be mid-protocol — close the farm rather than reuse it.
func (f *Farm) RunBatch(ctx context.Context, batch [][]*big.Int) (*transport.SessionResult, error) {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if len(batch) == 0 {
		return nil, errors.New("farm: empty batch")
	}
	sp := f.reg.StartSpan(MetricSpanBatch)
	defer sp.End()
	out := &transport.SessionResult{
		Accepted: make([]bool, len(batch)),
		Reasons:  make([]string, len(batch)),
		Outputs:  make([][]*big.Int, len(batch)),
	}
	// Wide mode needs an explicit opt-in, at least two live workers,
	// commitments on, and a batch narrower than the fleet (otherwise plain
	// sharding keeps every worker busy without recomputing solves).
	run := f.runSharded
	if live := f.LiveWorkers(); f.opts.WideCommit >= 2 && live >= 2 && len(batch) < live &&
		len(f.Verifier().Setup().EncR1) > 0 {
		run = f.runWide
	}
	if err := run(ctx, batch, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- sharded mode -------------------------------------------------------

// task is one shard: instances [lo,hi) of the batch, preferring worker
// pref, requeued retries times so far.
type task struct {
	lo, hi  int
	pref    int
	retries int
}

// shardQueue is the scheduler: a mutex/cond work queue that hands each
// worker its preferred shards first and lets idle workers steal the rest.
type shardQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	tasks       []*task
	outstanding int // tasks not yet completed
	workers     int // worker goroutines still running
	err         error
}

func newShardQueue() *shardQueue {
	q := &shardQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until a task is available for leg (preferred first, then any),
// the queue fails, or all tasks complete; nil means stop. stolen reports
// that the task preferred another worker.
func (q *shardQueue) pop(leg int) (t *task, stolen bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil || q.outstanding == 0 {
			return nil, false
		}
		for i, c := range q.tasks {
			if c.pref == leg {
				q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
				return c, false
			}
		}
		if len(q.tasks) > 0 {
			c := q.tasks[0]
			q.tasks = q.tasks[1:]
			return c, true
		}
		q.cond.Wait()
	}
}

func (q *shardQueue) done() {
	q.mu.Lock()
	q.outstanding--
	if q.outstanding == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

func (q *shardQueue) requeue(t *task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *shardQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil && err != nil {
		q.err = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// retire records a worker goroutine exiting; if the last worker leaves with
// shards still outstanding (every worker died), the queue fails with the
// final worker's error so blocked pops — there are none left — and the
// driver see it.
func (q *shardQueue) retire(err error) {
	q.mu.Lock()
	q.workers--
	if q.workers == 0 && q.outstanding > 0 && q.err == nil {
		if err == nil {
			err = errors.New("farm: all workers lost with shards outstanding")
		}
		q.err = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *shardQueue) failure() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// runSharded schedules batch across the live workers and writes verdicts
// into the matching positions of out.
func (f *Farm) runSharded(ctx context.Context, batch [][]*big.Int, out *transport.SessionResult) error {
	live := f.liveLegs()
	if len(live) == 0 {
		return errors.New("farm: no live workers")
	}
	size := f.opts.ShardSize
	if size <= 0 {
		size = (len(batch) + 2*len(live) - 1) / (2 * len(live))
		if size < 1 {
			size = 1
		}
	}
	q := newShardQueue()
	for s, i := 0, 0; s < len(batch); i++ {
		e := min(s+size, len(batch))
		q.tasks = append(q.tasks, &task{lo: s, hi: e, pref: live[i%len(live)]})
		s = e
	}
	q.outstanding = len(q.tasks)
	q.workers = len(live)
	// A cancelled caller context must wake workers parked in cond.Wait.
	stop := context.AfterFunc(ctx, func() { q.fail(ctx.Err()) })
	defer stop()
	var wg sync.WaitGroup
	for _, leg := range live {
		wg.Add(1)
		go func(leg int) {
			defer wg.Done()
			f.legWorker(ctx, leg, q, batch, out)
		}(leg)
	}
	wg.Wait()
	return q.failure()
}

// legWorker drains the queue over one leg until the queue empties, a fatal
// error lands, or this leg's worker dies.
func (f *Farm) legWorker(ctx context.Context, leg int, q *shardQueue, batch [][]*big.Int, out *transport.SessionResult) {
	for {
		t, stolen := q.pop(leg)
		if t == nil {
			q.retire(nil)
			return
		}
		if stolen {
			f.reg.Counter(MetricShardStolen).Inc()
		}
		pv, err := f.acquire(ctx)
		if err != nil {
			q.fail(err)
			q.retire(err)
			return
		}
		err = f.runShard(ctx, leg, pv.v, t, batch, out)
		f.release(pv)
		if err == nil {
			q.done()
			continue
		}
		fe, death := isWorkerDeath(ctx, err)
		if !death {
			q.fail(err)
			q.retire(err)
			return
		}
		f.workerDied(leg, fe.Err)
		if t.retries >= f.retries() {
			q.fail(fmt.Errorf("farm: shard [%d,%d) failed after %d attempts: %w", t.lo, t.hi, t.retries+1, err))
		} else {
			t.retries++
			f.reg.Counter(MetricShardRequeued).Inc()
			f.log.Info("farm shard requeued", "lo", t.lo, "hi", t.hi, "attempt", t.retries, "worker", f.LegAddr(leg))
			q.requeue(t)
		}
		q.retire(err)
		return
	}
}

// runShard drives one shard as a round on one leg, with verdicts written
// to the shard's slice of out.
func (f *Farm) runShard(ctx context.Context, leg int, v *vc.Verifier, t *task, batch [][]*big.Int, out *transport.SessionResult) error {
	sp := f.reg.StartSpan(MetricSpanShard)
	defer sp.End()
	f.reg.CounterVec(MetricShards, LabelWorker).With(f.LegAddr(leg)).Inc()
	res, err := vc.Drive(ctx, v, f.Leg(leg), batch[t.lo:t.hi], f.Options().Workers)
	if err != nil {
		return err
	}
	copy(out.Accepted[t.lo:], res.Accepted)
	copy(out.Reasons[t.lo:], res.Reasons)
	copy(out.Outputs[t.lo:], res.Outputs)
	return nil
}

// ---- wide mode ----------------------------------------------------------

// runWide drives the whole batch as one round through a wideEndpoint.
// A worker death retires the worker and retries the round with fresh
// randomness on the survivors, bounded like shard requeues; with fewer
// than two live workers left the batch falls back to sharded mode.
func (f *Farm) runWide(ctx context.Context, batch [][]*big.Int, out *transport.SessionResult) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		legs := f.liveLegs()
		if len(legs) < 2 {
			return f.runSharded(ctx, batch, out)
		}
		if attempt > f.retries() {
			return fmt.Errorf("farm: wide commit failed after %d attempts: %w", attempt, lastErr)
		}
		if attempt > 0 {
			f.reg.Counter(MetricShardRequeued).Add(int64(len(batch)))
		}
		pv, err := f.acquire(ctx)
		if err != nil {
			return err
		}
		f.reg.Counter(MetricWideSplits).Add(int64(len(batch)))
		sp := f.reg.StartSpan(MetricSpanShard)
		w := &wideEndpoint{f: f, v: pv.v, legs: legs[:min(f.opts.WideCommit, len(legs))]}
		res, err := vc.Drive(ctx, pv.v, w, batch, f.Options().Workers)
		if err != nil {
			err = w.drain(ctx, err)
		}
		sp.End()
		f.release(pv)
		if err == nil {
			*out = transport.SessionResult{Accepted: res.Accepted, Reasons: res.Reasons, Outputs: res.Outputs}
			return nil
		}
		if _, death := isWorkerDeath(ctx, err); !death {
			return err
		}
		lastErr = err
		f.log.Info("farm wide batch retried", "instances", len(batch), "attempt", attempt+1, "err", err)
	}
}

// wideEndpoint is one round split across cooperating legs: Commit masks
// Enc(r) into one share per leg, commits on every leg concurrently and
// folds the partial commitments; Respond reveals the decommit to every leg
// (each must close its wire batch) and emits one surviving leg's
// responses — the PCP answers are a deterministic function of the proof
// vector and the seed, so any leg's verify the combined commitments.
type wideEndpoint struct {
	f    *Farm
	v    *vc.Verifier
	legs []int
	eps  []vc.Endpoint
	n    int   // instances in the round
	live []int // positions in legs whose commit succeeded, awaiting a decommit
}

// each runs fn concurrently for every position in js and returns the
// positions that succeeded. A worker death retires that worker; the error
// is the first fatal failure if any, else the first death.
func (w *wideEndpoint) each(ctx context.Context, js []int, fn func(j int) error) ([]int, error) {
	errs := make([]error, len(w.legs))
	var wg sync.WaitGroup
	for _, j := range js {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = fn(j)
		}(j)
	}
	wg.Wait()
	var ok []int
	var fatal, death error
	for _, j := range js {
		switch fe, dead := isWorkerDeath(ctx, errs[j]); {
		case errs[j] == nil:
			ok = append(ok, j)
		case dead:
			w.f.workerDied(w.legs[j], fe.Err)
			death = cmp.Or(death, errs[j])
		default:
			fatal = cmp.Or(fatal, errs[j])
		}
	}
	return ok, cmp.Or(fatal, death)
}

func (w *wideEndpoint) Commit(ctx context.Context, req *vc.CommitRequest, instances [][]*big.Int) ([]*vc.Commitment, error) {
	k := len(w.legs)
	parts := vc.SplitCommitRequest(req, k)
	w.n, w.eps = len(instances), make([]vc.Endpoint, k)
	all := make([]int, k)
	for j := range all {
		all[j] = j
	}
	got := make([][]*vc.Commitment, k)
	var err error
	w.live, err = w.each(ctx, all, func(j int) error {
		w.f.reg.CounterVec(MetricShards, LabelWorker).With(w.f.LegAddr(w.legs[j])).Inc()
		w.eps[j] = w.f.Leg(w.legs[j])
		var err error
		got[j], err = w.eps[j].Commit(ctx, parts[j], instances)
		return err
	})
	if err != nil {
		return nil, err
	}
	cms := make([]*vc.Commitment, w.n)
	shares := make([]*vc.Commitment, k)
	for i := range cms {
		for j := range shares {
			shares[j] = got[j][i]
		}
		if cms[i], err = w.v.CombineCommitments(shares); err != nil {
			return nil, err
		}
	}
	return cms, nil
}

func (w *wideEndpoint) Respond(ctx context.Context, dreq *vc.DecommitRequest, emit func(int, *vc.Response) error) error {
	resps := make([][]*vc.Response, len(w.legs))
	ok, err := w.each(ctx, w.live, func(j int) error {
		resps[j] = make([]*vc.Response, w.n)
		return w.eps[j].Respond(ctx, dreq, func(i int, r *vc.Response) error {
			resps[j][i] = r
			return nil
		})
	})
	w.live = nil
	if _, dead := isWorkerDeath(ctx, err); (err != nil && !dead) || len(ok) == 0 {
		return err
	}
	for i, r := range resps[ok[0]] {
		if err := emit(i, r); err != nil {
			return err
		}
	}
	return nil
}

// drain closes the wire batch of every leg still awaiting a decommit when
// the round failed before revealing its own: those legs get a freshly
// built decommit of the burnt round and their answers are dropped. It
// returns cause unless draining failed fatally.
func (w *wideEndpoint) drain(ctx context.Context, cause error) error {
	if len(w.live) == 0 {
		return cause
	}
	dreq, err := w.v.Decommit()
	if err == nil {
		err = w.Respond(ctx, dreq, func(int, *vc.Response) error { return nil })
	}
	if _, dead := isWorkerDeath(ctx, err); err != nil && !dead {
		return err
	}
	return cause
}
