package zaatar

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"sort"
	"sync/atomic"

	"zaatar/internal/farm"
	"zaatar/internal/obs"
	"zaatar/internal/transport"
)

// FarmError attributes a farm failure (DialFarm, or a multi-address Dial)
// to one worker: Addr names the worker, Leg its connection index, and
// Unwrap exposes the cause. RunBatch on a farm client returns one only
// when a shard could not be recovered (every retry exhausted, or all
// workers lost); a mere verification failure is never an error — it
// surfaces as SessionResult.Accepted[i] == false.
type FarmError = transport.FarmError

// FarmRouting selects how DialFarm orders workers for shard placement.
type FarmRouting int

const (
	// FarmAffinity (the default) ranks the workers by a rendezvous hash of
	// the program's source digest and the worker address, so a given
	// program consistently fronts the same workers across farm restarts —
	// the ones whose program caches and artifact stores are already warm.
	FarmAffinity FarmRouting = iota
	// FarmStatic keeps the caller's address order.
	FarmStatic
)

// WithFarmRouting selects the worker-ordering policy for DialFarm; other
// dial paths ignore it (a multi-address Dial always keeps the caller's
// order).
func WithFarmRouting(r FarmRouting) RunOption {
	return runOption(func(o *options) { o.farmRouting = r })
}

// WithShardRetries bounds how many times a farm may requeue one shard after
// a worker death before failing the batch. The default is 2; negative
// disables requeueing (any worker death fails the batch).
func WithShardRetries(n int) RunOption {
	return runOption(func(o *options) { o.shardRetries = n })
}

// WithFarmShardSize fixes the number of instances per farm shard. By
// default the farm sizes shards so each live worker expects about two —
// small enough for work stealing to absorb stragglers, large enough to
// amortize the per-shard key generation.
func WithFarmShardSize(n int) RunOption {
	return runOption(func(o *options) { o.shardSize = n })
}

// WithFarmWideCommit lets a farm split a single instance's commitment
// multiexp across up to k cooperating workers when a batch has fewer
// instances than the farm has workers (each worker commits against a
// masked share of Enc(r); the partial commitments multiply back into the
// single-prover commitment). Off by default: every cooperating worker
// still solves the constraints and builds H(t) itself, so wide commits pay
// off only when the commitment crypto dominates. Values below 2 disable it.
func WithFarmWideCommit(k int) RunOption {
	return runOption(func(o *options) { o.wideCommit = k })
}

// rankAddrs orders worker addresses by rendezvous hash of the program
// digest: each worker scores sha256(srcDigest ‖ addr), and higher scores
// front the ranking. Every farm for the same program computes the same
// order whatever order the caller listed the workers in, which is what
// keeps shard placement (and so each worker's program cache) stable across
// restarts.
func rankAddrs(addrs []string, src string) []string {
	digest := sha256.Sum256([]byte(src))
	type ranked struct {
		addr  string
		score [sha256.Size]byte
	}
	rs := make([]ranked, len(addrs))
	for i, a := range addrs {
		h := sha256.New()
		h.Write(digest[:])
		h.Write([]byte(a))
		copy(rs[i].score[:], h.Sum(nil))
		rs[i].addr = a
	}
	sort.SliceStable(rs, func(i, j int) bool {
		return string(rs[i].score[:]) > string(rs[j].score[:])
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.addr
	}
	return out
}

// DialFarm connects to a fleet of prover workers and returns a Client that
// shards every batch across them: each shard runs as an independent
// mini-batch (its own commitment key and query seed, so shards are sound to
// run concurrently and to replay) on one worker, placed affinity-first with
// work stealing for stragglers. A worker that dies mid-batch has its shard
// requeued onto the survivors (bounded by WithShardRetries); only an
// unrecoverable failure surfaces, as a *FarmError naming the worker. The
// returned Client behaves exactly like a Dial'ed one — same RunBatch, same
// result shape, verdicts index-aligned with the batch.
//
// Shards ride the keep-alive session machinery: each is one more batch on
// its worker's connection. Scheduling telemetry lands in the farm.* metric
// series of the registry given by WithMetrics (or the default registry).
func DialFarm(ctx context.Context, addrs []string, src string, opts ...RunOption) (*Client, error) {
	o := buildRunOptions(opts)
	var clean []string
	for _, a := range addrs {
		if a != "" {
			clean = append(clean, a)
		}
	}
	if len(clean) == 0 {
		return nil, fmt.Errorf("zaatar: no worker addresses")
	}
	return dialFarm(ctx, clean, src, o)
}

// dialFarm opens a farm over addrs: DialFarm's, and a multi-address Dial's.
func dialFarm(ctx context.Context, addrs []string, src string, o options) (*Client, error) {
	if o.farmRouting == FarmAffinity {
		addrs = rankAddrs(addrs, src)
	}
	sess, err := dialSession(ctx, addrs, src, o)
	if err != nil {
		return nil, err
	}
	f, err := farm.New(sess, farm.Options{
		ShardRetries: o.shardRetries,
		ShardSize:    o.shardSize,
		WideCommit:   o.wideCommit,
	})
	if err != nil {
		_ = sess.Close()
		return nil, err
	}
	return &Client{sess: f}, nil
}

// ServeWorker runs a farm worker on ln: an ordinary prover service (farm
// shards arrive as ordinary wire batches, so any Serve-based server can be
// a worker) that additionally reports the farm.worker.up gauge — 1 while
// serving, 0 once drained — in the registry given by WithServerMetrics (or
// the default registry).
func ServeWorker(ctx context.Context, ln net.Listener, opts ...ServerOption) error {
	var o serverOptions
	for _, fn := range opts {
		fn(&o)
	}
	reg := o.svc.Obs
	if reg == nil {
		reg = obs.Default()
	}
	var up atomic.Int64
	up.Store(1)
	reg.RegisterGauge(farm.MetricWorkerUp, func() float64 { return float64(up.Load()) })
	defer up.Store(0)
	return Serve(ctx, ln, opts...)
}
