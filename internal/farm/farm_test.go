package farm

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"testing"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/prg"
	"zaatar/internal/transport"
)

const farmSrc = `
input x : int32;
output y : int32;
output sq : int64;
y = x - 3;
sq = x * x;
`

// dieAfterAck wraps the server side of a pipe so the worker completes the
// handshake and then dies. The worker's replies come in write phases — the
// SourceNeeded ack, then the session ack — and once two have been written
// the next read fails and the connection closes. From the coordinator's
// side the worker accepted the session and vanished before serving its
// first shard — the deterministic "killed mid-batch" stand-in.
type dieAfterAck struct {
	net.Conn
	writing atomic.Bool  // the last operation was a write
	phases  atomic.Int32 // write phases so far
}

func (c *dieAfterAck) Write(p []byte) (int, error) {
	if !c.writing.Swap(true) {
		c.phases.Add(1)
	}
	return c.Conn.Write(p)
}

func (c *dieAfterAck) Read(p []byte) (int, error) {
	c.writing.Store(false)
	if c.phases.Load() >= 2 {
		c.Conn.Close()
		return 0, errors.New("worker killed")
	}
	return c.Conn.Read(p)
}

// newTestFarm dials n loopback workers (in-process transport services over
// net.Pipe) and wraps them in a Farm. wrap, when non-nil, may replace
// worker i's server-side connection (fault injection).
func newTestFarm(t *testing.T, n int, hello transport.Hello, copts transport.ClientOptions, fopts Options, wrap func(i int, conn net.Conn) net.Conn) *Farm {
	t.Helper()
	conns := make([]net.Conn, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		client, server := net.Pipe()
		if wrap != nil {
			server = wrap(i, server)
		}
		go func(server net.Conn) {
			_ = transport.ServeConn(context.Background(), server, transport.ServerOptions{Workers: 1})
		}(server)
		conns[i] = client
		addrs[i] = fmt.Sprintf("worker-%d", i)
	}
	copts.Addrs = addrs
	sess, err := transport.NewSession(context.Background(), conns, hello, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	f, err := New(sess, fopts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func intBatch(n int) [][]*big.Int {
	batch := make([][]*big.Int, n)
	for i := range batch {
		batch[i] = []*big.Int{big.NewInt(int64(i + 2))}
	}
	return batch
}

func checkOutputs(t *testing.T, batch [][]*big.Int, res *transport.SessionResult) {
	t.Helper()
	if len(res.Accepted) != len(batch) {
		t.Fatalf("result covers %d of %d instances", len(res.Accepted), len(batch))
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	for i := range batch {
		x := batch[i][0].Int64()
		if res.Outputs[i][0].Int64() != x-3 || res.Outputs[i][1].Int64() != x*x {
			t.Fatalf("instance %d outputs: %v", i, res.Outputs[i])
		}
	}
}

// TestFarmShardedMatchesSingleProver: a batch sharded across two workers
// verifies with the same per-instance verdicts and outputs a single prover
// would produce.
func TestFarmShardedMatchesSingleProver(t *testing.T) {
	reg := obs.NewRegistry()
	hello := transport.Hello{Source: farmSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	f := newTestFarm(t, 2, hello,
		transport.ClientOptions{Seed: []byte("farm"), Obs: reg},
		Options{}, nil)
	batch := intBatch(8)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	if got := reg.CounterVec(MetricShards, LabelWorker).With("worker-0").Value() +
		reg.CounterVec(MetricShards, LabelWorker).With("worker-1").Value(); got < 2 {
		t.Fatalf("farm.shards = %d, want ≥ 2", got)
	}
	if f.LiveWorkers() != 2 {
		t.Fatalf("live workers = %d after a clean batch", f.LiveWorkers())
	}
	// A second batch reuses the session (fresh seeds per shard).
	res, err = f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
}

// TestFarmWorkerDeathRequeues kills one of two workers after the handshake:
// its shards must requeue onto the survivor, the batch must still verify,
// and farm.shard.requeued must tick.
func TestFarmWorkerDeathRequeues(t *testing.T) {
	reg := obs.NewRegistry()
	hello := transport.Hello{Source: farmSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	f := newTestFarm(t, 2, hello,
		transport.ClientOptions{Seed: []byte("kill"), Obs: reg},
		Options{},
		func(i int, conn net.Conn) net.Conn {
			if i == 1 {
				return &dieAfterAck{Conn: conn}
			}
			return conn
		})
	batch := intBatch(6)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("batch should survive one worker death: %v", err)
	}
	checkOutputs(t, batch, res)
	if got := reg.Counter(MetricShardRequeued).Value(); got < 1 {
		t.Fatalf("farm.shard.requeued = %d, want ≥ 1", got)
	}
	if got := reg.Counter(MetricWorkerFailures).Value(); got != 1 {
		t.Fatalf("farm.worker.failures = %d, want 1", got)
	}
	if f.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", f.LiveWorkers())
	}
}

// TestFarmAllWorkersDead: when every worker dies the batch fails with a
// *transport.FarmError naming a worker, never a bare I/O error.
func TestFarmAllWorkersDead(t *testing.T) {
	hello := transport.Hello{Source: farmSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	f := newTestFarm(t, 2, hello,
		transport.ClientOptions{Seed: []byte("dead"), Obs: obs.NewRegistry()},
		Options{},
		func(i int, conn net.Conn) net.Conn { return &dieAfterAck{Conn: conn} })
	_, err := f.RunBatch(context.Background(), intBatch(4))
	if err == nil {
		t.Fatal("batch succeeded with every worker dead")
	}
	var fe *transport.FarmError
	if !errors.As(err, &fe) {
		t.Fatalf("want *transport.FarmError, got %T: %v", err, err)
	}
	if fe.Addr != "worker-0" && fe.Addr != "worker-1" {
		t.Fatalf("FarmError does not name a worker: %q", fe.Addr)
	}
}

// TestFarmConcurrentShards drives many single-instance shards across three
// workers; with -race this exercises concurrent shard completion into the
// shared result (the CI race job runs this package).
func TestFarmConcurrentShards(t *testing.T) {
	reg := obs.NewRegistry()
	hello := transport.Hello{Source: farmSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	f := newTestFarm(t, 3, hello,
		transport.ClientOptions{Seed: []byte("race"), Obs: reg},
		Options{ShardSize: 1}, nil)
	batch := intBatch(9)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	if got := reg.CounterVec(MetricShards, LabelWorker).With("worker-0").Value() +
		reg.CounterVec(MetricShards, LabelWorker).With("worker-1").Value() +
		reg.CounterVec(MetricShards, LabelWorker).With("worker-2").Value(); got != 9 {
		t.Fatalf("farm.shards = %d, want 9", got)
	}
}

// TestFarmWideCommit splits single-instance commitments across two workers
// and checks the combined commitment verifies.
func TestFarmWideCommit(t *testing.T) {
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("fg"), 0))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	hello := transport.Hello{Source: farmSrc, RhoLin: 1, Rho: 1}
	f := newTestFarm(t, 2, hello,
		transport.ClientOptions{Seed: []byte("wide"), Group: g, Obs: reg},
		Options{WideCommit: 2}, nil)
	batch := [][]*big.Int{{big.NewInt(9)}}
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	if got := reg.Counter(MetricWideSplits).Value(); got < 1 {
		t.Fatalf("farm.wide.splits = %d, want ≥ 1", got)
	}
}

// TestFarmWideWorkerDeathRetries kills one of the two workers a wide round
// splits its commitment across: the survivor's open wire batch is drained,
// the dead worker retired, and the round retried on the remaining pair.
func TestFarmWideWorkerDeathRetries(t *testing.T) {
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("fg"), 0))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	hello := transport.Hello{Source: farmSrc, RhoLin: 1, Rho: 1}
	f := newTestFarm(t, 3, hello,
		transport.ClientOptions{Seed: []byte("wide-kill"), Group: g, Obs: reg},
		Options{WideCommit: 2},
		func(i int, conn net.Conn) net.Conn {
			if i == 0 {
				return &dieAfterAck{Conn: conn}
			}
			return conn
		})
	batch := [][]*big.Int{{big.NewInt(9)}}
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("wide batch should survive one worker death: %v", err)
	}
	checkOutputs(t, batch, res)
	if got := reg.Counter(MetricShardRequeued).Value(); got != 1 {
		t.Fatalf("farm.shard.requeued = %d, want 1", got)
	}
	if f.LiveWorkers() != 2 {
		t.Fatalf("live workers = %d, want 2", f.LiveWorkers())
	}
	// The drained survivor still serves: a second batch verifies.
	res, err = f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
}
