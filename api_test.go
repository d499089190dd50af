package zaatar

import (
	"context"
	"log/slog"
	"math/big"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zaatar/internal/obs"
	"zaatar/internal/transport"
)

// TestServeAndDial exercises the whole public split deployment: Serve on a
// TCP listener, Dial a client, push two batches over the kept-alive
// session, close, cancel.
func TestServeAndDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, ln,
			WithServerWorkers(2),
			WithMaxSessions(4),
			WithServerMetrics(reg),
		)
	}()

	src := `input x : int32; output y : int32; y = x - 3;`
	client, err := Dial(context.Background(), ln.Addr().String(), src,
		WithParams(2, 2), WithoutCommitment(), WithSeed([]byte("dial")))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := client.WireVersion(); got != transport.ProtocolVersion {
		t.Fatalf("wire version %d, want %d", got, transport.ProtocolVersion)
	}
	if client.Program().NumInputs() != 1 {
		t.Fatalf("program shape: %d inputs", client.Program().NumInputs())
	}
	for b, want := range []int64{7, -3} {
		res, err := client.RunBatch(context.Background(), [][]*big.Int{{big.NewInt(want + 3)}})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if !res.AllAccepted() {
			t.Fatalf("batch %d rejected: %v", b, res.Reasons)
		}
		if got := res.Outputs[0][0].Int64(); got != want {
			t.Fatalf("batch %d output %d, want %d", b, got, want)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if got := reg.Counter(transport.MetricServedBatches).Value(); got != 2 {
		t.Fatalf("server batches = %d, want 2", got)
	}
}

// TestServeWithStoreWarmRestart drives the public artifact-store surface:
// a server started with WithStore compiles once and persists the bundle;
// a second server over the same directory (a "restart") serves a returning
// client off disk — one store hit, no compile cache miss beyond the load,
// and the v3 client never uploads its source.
func TestServeWithStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	src := `input x : int32; output y : int32; y = x - 3;`

	serve := func(reg *obs.Registry) (addr string, stop func(*testing.T)) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- Serve(ctx, ln, WithServerWorkers(2), WithStore(dir), WithServerMetrics(reg))
		}()
		return ln.Addr().String(), func(t *testing.T) {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Serve: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return after cancel")
			}
		}
	}

	runOnce := func(addr string, seed string) {
		client, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithoutCommitment(), WithSeed([]byte(seed)))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		res, err := client.RunBatch(context.Background(), [][]*big.Int{{big.NewInt(8)}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAccepted() {
			t.Fatalf("rejected: %v", res.Reasons)
		}
	}

	reg1 := obs.NewRegistry()
	addr, stop := serve(reg1)
	runOnce(addr, "cold")
	stop(t) // Serve's return waits for the async bundle write-back
	if got := reg1.Counter(transport.MetricStoreMisses).Value(); got != 1 {
		t.Fatalf("cold run store misses = %d, want 1", got)
	}

	reg2 := obs.NewRegistry()
	addr, stop = serve(reg2)
	runOnce(addr, "warm")
	stop(t)
	if got := reg2.Counter(transport.MetricStoreHits).Value(); got != 1 {
		t.Fatalf("restart store hits = %d, want 1", got)
	}
	if got := reg2.Counter(transport.MetricHelloSourceSkipped).Value(); got != 1 {
		t.Fatalf("restart source uploads skipped = %d, want 1", got)
	}
	if got := reg2.Counter(transport.MetricStoreBytesSaved).Value(); got != int64(len(src)) {
		t.Fatalf("restart bytes saved = %d, want %d", got, len(src))
	}
}

// gatedListener calls gate before every Write on each connection it
// accepts.
type gatedListener struct {
	net.Listener
	gate func()
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return gatedConn{c, l.gate}, nil
}

type gatedConn struct {
	net.Conn
	gate func()
}

func (c gatedConn) Write(p []byte) (int, error) {
	c.gate()
	return c.Conn.Write(p)
}

// servedHandler is a slog handler that closes served at a service's first
// "batch served" record, which the service logs after counting the batch.
type servedHandler struct {
	once   *sync.Once
	served chan struct{}
}

func newServedHandler() servedHandler {
	return servedHandler{once: new(sync.Once), served: make(chan struct{})}
}

func (h servedHandler) signal()                                  { h.once.Do(func() { close(h.served) }) }
func (h servedHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h servedHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h servedHandler) WithGroup(string) slog.Handler            { return h }

func (h servedHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "batch served" {
		h.signal()
	}
	return nil
}

// TestDialMultiAddress: a comma-separated Dial is a static-routed farm.
// One batch is split across both servers; once one server is closed, the
// next batches still verify, its shards requeued onto the survivor.
func TestDialMultiAddress(t *testing.T) {
	src := `input x : int32; output y : int32; y = x - 3;`
	// For a program this small, work stealing could let leg 0 run every
	// shard before leg 1 pops one. Once the session is open, server 0
	// holds back its first reply until server 1 has served a batch; leg 1
	// always pops its own preferred shard first, so this cannot deadlock.
	// A server counts a batch only after its last reply, so the check
	// below also waits for each server's first "batch served" record.
	served := []servedHandler{newServedHandler(), newServedHandler()}
	var armed atomic.Bool
	gate := func() {
		if armed.Load() {
			<-served[1].served
		}
	}
	var addrs []string
	var regs []*obs.Registry
	var stops []func()
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ln = gatedListener{ln, gate}
		}
		reg := obs.NewRegistry()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		logger := slog.New(served[i])
		go func() { done <- Serve(ctx, ln, WithServerWorkers(1), WithServerMetrics(reg), WithServerLogger(logger)) }()
		var once sync.Once
		stop := func() {
			once.Do(func() {
				cancel()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Error("Serve did not return after cancel")
				}
			})
		}
		t.Cleanup(stop)
		addrs, regs, stops = append(addrs, ln.Addr().String()), append(regs, reg), append(stops, stop)
	}
	t.Cleanup(served[1].signal) // never leave server 0 parked, whatever happened
	creg := obs.NewRegistry()
	client, err := Dial(context.Background(), strings.Join(addrs, ","), src,
		WithParams(2, 2), WithoutCommitment(), WithSeed([]byte("multi")), WithMetrics(creg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	armed.Store(true) // the handshake is over: what follows are batches
	run := func() {
		t.Helper()
		batch := make([][]*big.Int, 8)
		for i := range batch {
			batch[i] = []*big.Int{big.NewInt(int64(i))}
		}
		res, err := client.RunBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAccepted() {
			t.Fatalf("rejected: %v", res.Reasons)
		}
		for i := range batch {
			if got := res.Outputs[i][0].Int64(); got != int64(i)-3 {
				t.Fatalf("instance %d output %d", i, got)
			}
		}
	}
	run()
	for i, reg := range regs {
		select {
		case <-served[i].served:
		case <-time.After(10 * time.Second):
		}
		if got := reg.Counter(transport.MetricServedBatches).Value(); got < 1 {
			t.Fatalf("server %d served %d shards, want ≥ 1", i, got)
		}
	}
	stops[1]()
	for b := 0; b < 3 && creg.Counter("farm.shard.requeued").Value() == 0; b++ {
		run()
	}
	if got := creg.Counter("farm.shard.requeued").Value(); got < 1 {
		t.Fatalf("farm.shard.requeued = %d after closing a server, want ≥ 1", got)
	}
}

// TestDialBadAddress covers the error paths reachable without a server.
func TestDialBadAddress(t *testing.T) {
	if _, err := Dial(context.Background(), " , ", "input x : int32; output y : int32; y = x;"); err == nil {
		t.Fatal("empty address list accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1", `input x : int32; output y : int32; y = x;`); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}

// TestFieldMismatchRuntimeError is the documented runtime half of the
// CompileOption/RunOption split: a field option passed to Run but not to
// Compile fails loudly instead of being silently ignored.
func TestFieldMismatchRuntimeError(t *testing.T) {
	prog, err := Compile(`input x : int32; output y : int32; y = x + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(prog, [][]*big.Int{{big.NewInt(1)}},
		WithField220(), WithParams(1, 1), WithoutCommitment())
	if err == nil {
		t.Fatal("field mismatch between Compile and Run went undetected")
	}
	if !strings.Contains(err.Error(), "F220") || !strings.Contains(err.Error(), "F128") {
		t.Fatalf("mismatch error should name both fields: %v", err)
	}
	if _, err := NewVerifier(prog, WithField220()); err == nil {
		t.Fatal("NewVerifier accepted a mismatched field option")
	}
	if _, err := NewProver(prog, WithField220()); err == nil {
		t.Fatal("NewProver accepted a mismatched field option")
	}
	// Passed consistently, the same option is fine.
	prog220, err := Compile(`input x : int32; output y : int32; y = x + 1;`, WithField220())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog220, [][]*big.Int{{big.NewInt(1)}},
		WithField220(), WithParams(1, 1), WithoutCommitment(), WithSeed([]byte("fm")))
	if err != nil || !res.AllAccepted() {
		t.Fatalf("matched field run failed: %v", err)
	}
}

// TestDialBackendNegotiation covers the public backend surface end to end:
// an auto-mode client negotiates the sum-check lane with a full server, a
// restricted server degrades the same offer to zaatar, and an explicit
// unavailable backend fails loudly.
func TestDialBackendNegotiation(t *testing.T) {
	// Pure arithmetic, so the cost model recommends sumcheck and every
	// backend accepts it.
	src := `input x : int32; output y : int32; output sq : int64; y = x - 3; sq = x * x;`
	serve := func(t *testing.T, opts ...ServerOption) (addr string, stop func()) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- Serve(ctx, ln, opts...) }()
		return ln.Addr().String(), func() {
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("Serve did not return after cancel")
			}
		}
	}

	checkBatch := func(t *testing.T, client *Client) {
		t.Helper()
		res, err := client.RunBatch(context.Background(), [][]*big.Int{{big.NewInt(10)}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAccepted() {
			t.Fatalf("rejected: %v", res.Reasons)
		}
		if res.Outputs[0][0].Int64() != 7 || res.Outputs[0][1].Int64() != 100 {
			t.Fatalf("outputs: %v", res.Outputs[0])
		}
	}

	t.Run("auto negotiates sumcheck", func(t *testing.T) {
		addr, stop := serve(t, WithServerWorkers(2))
		defer stop()
		client, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithBackend(BackendAuto), WithSeed([]byte("auto")))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if got := client.Backend(); got != BackendSumcheck {
			t.Fatalf("negotiated %q, want sumcheck", got)
		}
		checkBatch(t, client)
	})

	t.Run("auto degrades to zaatar", func(t *testing.T) {
		addr, stop := serve(t, WithServerWorkers(2), WithServerBackends(BackendZaatar, BackendGinger))
		defer stop()
		client, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithBackend(BackendAuto), WithoutCommitment(), WithSeed([]byte("deg")))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if got := client.Backend(); got != BackendZaatar {
			t.Fatalf("negotiated %q, want zaatar", got)
		}
		checkBatch(t, client)
	})

	t.Run("explicit backend unavailable", func(t *testing.T) {
		addr, stop := serve(t, WithServerWorkers(2), WithServerBackends(BackendZaatar))
		defer stop()
		_, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithBackend(BackendSumcheck))
		if err == nil {
			t.Fatal("dial succeeded against a server without the requested backend")
		}
		if !strings.Contains(err.Error(), "no common proof backend") {
			t.Fatalf("err = %v, want no-common-backend", err)
		}
	})
}

// TestBackendsListed checks the build's backend registry surface.
func TestBackendsListed(t *testing.T) {
	names := Backends()
	want := map[string]bool{BackendZaatar: false, BackendGinger: false, BackendSumcheck: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("Backends() = %v missing %q", names, n)
		}
	}
}
