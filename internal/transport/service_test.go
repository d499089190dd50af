package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/vc"
)

// servicePipe connects a client conn to svc, serving the server end in a
// goroutine; the returned channel yields the server-side error.
func servicePipe(svc *Service) (net.Conn, chan error) {
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(context.Background(), server) }()
	return client, errCh
}

func testService(opts ServiceOptions) (*Service, *obs.Registry) {
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	return NewService(opts), opts.Obs
}

func checkBatch(t *testing.T, res *SessionResult, inputs []int64) {
	t.Helper()
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	for i, x := range inputs {
		if res.Outputs[i][0].Int64() != x-3 || res.Outputs[i][1].Int64() != x*x {
			t.Fatalf("instance %d (x=%d): outputs %v", i, x, res.Outputs[i])
		}
	}
}

func instances(xs ...int64) [][]*big.Int {
	batch := make([][]*big.Int, len(xs))
	for i, x := range xs {
		batch[i] = []*big.Int{big.NewInt(x)}
	}
	return batch
}

// TestKeepAliveMultiBatch pushes three batches over one connection: the
// program is negotiated once, each batch redraws its queries, and the
// server counts one session but three batches.
func TestKeepAliveMultiBatch(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	sess, err := NewSession(context.Background(), []net.Conn{client}, hello, ClientOptions{Seed: []byte("ka")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.WireVersion(); got != ProtocolVersion {
		t.Fatalf("negotiated v%d, want v%d", got, ProtocolVersion)
	}
	for b, xs := range [][]int64{{10, -4}, {6}, {1, 2, 3}} {
		res, err := sess.RunBatch(context.Background(), instances(xs...))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		checkBatch(t, res, xs)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.Counter(MetricSessions).Value(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	if got := reg.Counter(MetricServedBatches).Value(); got != 3 {
		t.Fatalf("batches = %d, want 3", got)
	}
	if got := reg.Counter(MetricServedInstance).Value(); got != 6 {
		t.Fatalf("instances = %d, want 6", got)
	}
}

// recordingProver is a hand-rolled prover loop that hands each wire
// message to the callbacks (either may be nil) before handling it — tests
// use it to observe protocol-level invariants the real Service does not
// surface.
func recordingProver(server net.Conn, onBatch func(BatchMsg), onDecommit func(DecommitMsg)) error {
	defer server.Close()
	dec, enc := gob.NewDecoder(server), gob.NewEncoder(server)
	h, prog, err := serveHello(dec, enc)
	if err != nil {
		return err
	}
	prover, err := vc.NewProver(prog, h.config(1, nil, h.Backends[0]))
	if err != nil {
		return err
	}
	for {
		var b BatchMsg
		if err := dec.Decode(&b); err != nil {
			return err
		}
		if b.Close {
			return nil
		}
		if onBatch != nil {
			onBatch(b)
		}
		if b.Req != nil {
			if err := prover.HandleCommitRequest(b.Req); err != nil {
				return err
			}
		}
		n := len(b.Instances)
		states := make([]*vc.InstanceState, n)
		cms := CommitmentsMsg{Items: make([]*vc.Commitment, n)}
		for i := range b.Instances {
			if cms.Items[i], states[i], err = prover.Commit(context.Background(), b.Instances[i]); err != nil {
				return err
			}
		}
		if err := enc.Encode(cms); err != nil {
			return err
		}
		var d DecommitMsg
		if err := dec.Decode(&d); err != nil {
			return err
		}
		if onDecommit != nil {
			onDecommit(d)
		}
		if err := prover.HandleDecommit(d.Req); err != nil {
			return err
		}
		resp := ResponsesMsg{Items: make([]*vc.Response, n)}
		for i := range states {
			if resp.Items[i], err = prover.Respond(context.Background(), states[i]); err != nil {
				return err
			}
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
}

// TestServiceRejectsMaliciousCommitRequest replays the crash a hostile
// client used to cause: a commit request whose ciphertext carries a
// component ≡ 0 mod P reached the Montgomery batch inversion and panicked
// the whole multi-tenant service. The server must instead answer with a
// protocol error, count a session error, and keep serving honest sessions.
func TestServiceRejectsMaliciousCommitRequest(t *testing.T) {
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("mal-g"), 0))
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1}
	prog, err := compiler.Compile(hello.fieldOf(), hello.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hello.config(1, []byte("mal-seed"), pcp.BackendZaatar)
	cfg.Group = g
	ver, err := vc.NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := ver.Setup()
	req.EncR1[0].A = big.NewInt(0)

	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	cc := newTimedCodec(client, 5*time.Second)
	if ack, err := openRaw(cc, hello); err != nil || ack.Err != "" {
		t.Fatalf("hello failed: %v %q", err, ack.Err)
	}
	if err := cc.send(BatchMsg{Req: req, Instances: instances(4)}); err != nil {
		t.Fatal(err)
	}
	var cms CommitmentsMsg
	if err := cc.recv(&cms); err != nil {
		t.Fatalf("server dropped the connection instead of answering: %v", err)
	}
	if cms.Err == "" {
		t.Fatal("server accepted a ciphertext component ≡ 0 mod P")
	}
	client.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("server reported success for a malicious session")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server goroutine never returned")
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSessionErrors, got)
	}

	// The same service still runs an honest committed session end to end.
	client2, errCh2 := servicePipe(svc)
	sess, err := NewSession(context.Background(), []net.Conn{client2}, hello, ClientOptions{Seed: []byte("ok"), Group: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunBatch(context.Background(), instances(5))
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, res, []int64{5})
	sess.Close()
	if err := <-errCh2; err != nil {
		t.Fatalf("honest follow-up session: %v", err)
	}
}

// TestKeepAliveRekeysPerBatch runs two committed batches on one kept-alive
// session and records each BatchMsg: every batch must carry its own commit
// request with fresh key material. Reusing r across batches is a soundness
// bug, not an optimization — the prover could subtract the two revealed
// consistency points t = r + Σ αᵢqᵢ and solve for r.
func TestKeepAliveRekeysPerBatch(t *testing.T) {
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("kg"), 0))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reqs []*vc.CommitRequest
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- recordingProver(server, func(b BatchMsg) {
			mu.Lock()
			reqs = append(reqs, b.Req)
			mu.Unlock()
		}, nil)
	}()
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1}
	sess, err := NewSession(context.Background(), []net.Conn{client}, hello, ClientOptions{Seed: []byte("kc"), Group: g})
	if err != nil {
		t.Fatal(err)
	}
	setup := sess.SetupDuration()
	for b, xs := range [][]int64{{5}, {7, 9}} {
		res, err := sess.RunBatch(context.Background(), instances(xs...))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		checkBatch(t, res, xs)
	}
	if setup != sess.SetupDuration() {
		t.Fatal("keep-alive batches must not repeat session setup")
	}
	sess.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(reqs) != 2 || reqs[0] == nil || reqs[1] == nil {
		t.Fatalf("recorded %d commit requests (nil included?), want one per batch", len(reqs))
	}
	if reqs[0].PK.H.Cmp(reqs[1].PK.H) == 0 {
		t.Fatal("ElGamal key reused across keep-alive batches")
	}
	if reqs[0].EncR1[0].A.Cmp(reqs[1].EncR1[0].A) == 0 {
		t.Fatal("commitment vector Enc(r) reused across keep-alive batches")
	}
}

// TestKeepAliveFreshSeeds checks the per-batch reseed actually changes the
// queries: two batches on a fixed client seed decommit different seeds on
// the wire.
func TestKeepAliveFreshSeeds(t *testing.T) {
	var mu sync.Mutex
	var seeds [][]byte
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- recordingProver(server, nil, func(d DecommitMsg) {
			mu.Lock()
			seeds = append(seeds, append([]byte(nil), d.Req.Seed...))
			mu.Unlock()
		})
	}()
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := NewSession(context.Background(), []net.Conn{client}, hello, ClientOptions{Seed: []byte("fs")})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		if res, err := sess.RunBatch(context.Background(), instances(4)); err != nil || !res.AllAccepted() {
			t.Fatalf("batch %d: %v %v", b, err, res)
		}
	}
	sess.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(seeds) != 2 {
		t.Fatalf("recorded %d seeds, want 2", len(seeds))
	}
	if string(seeds[0]) == string(seeds[1]) {
		t.Fatal("keep-alive batches reused the query seed — binding would break")
	}
}

// TestIdleTimeoutReapsConnection parks a keep-alive connection after one
// batch: the server must reap it at IdleTimeout as a clean end (nil error,
// transport.idle.closed), not a session failure.
func TestIdleTimeoutReapsConnection(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1, IdleTimeout: 200 * time.Millisecond})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := NewSession(context.Background(), []net.Conn{client}, hello, ClientOptions{Seed: []byte("id")})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sess.RunBatch(context.Background(), instances(7)); err != nil || !res.AllAccepted() {
		t.Fatalf("batch: %v %v", err, res)
	}
	// Park: no Close frame, no hangup — only the idle deadline can end the
	// server side.
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("server: %v, want clean idle reap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection was never reaped")
	}
	if got := reg.Counter(MetricIdleClosed).Value(); got != 1 {
		t.Fatalf("idle.closed = %d, want 1", got)
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 0 {
		t.Fatalf("session errors = %d, want 0 (idle reap is clean)", got)
	}
	_ = sess.Close()
}

// TestMaxConnsRefusesExcess caps Serve at one open connection: with an idle
// keep-alive session parked on it, a second dial must be refused at accept
// (counted in transport.conns.rejected) instead of pinning another
// goroutine.
func TestMaxConnsRefusesExcess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, reg := testService(ServiceOptions{Workers: 1, MaxConns: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx, ln) }()

	conn1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := NewSession(context.Background(), []net.Conn{conn1}, hello, ClientOptions{Seed: []byte("mc")})
	if err != nil {
		t.Fatal(err)
	}
	// The first connection is fully established (the ack arrived), so the
	// accept loop has accounted for it; a second connection is over the cap.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(context.Background(), []net.Conn{conn2}, hello, ClientOptions{}); err == nil {
		t.Fatal("session over the MaxConns cap succeeded")
	}
	conn2.Close()
	if got := reg.Counter(MetricConnsRejected).Value(); got != 1 {
		t.Fatalf("conns.rejected = %d, want 1", got)
	}
	sess.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after cancel")
	}
	if got := reg.Counter(MetricConnsOpen).Value(); got != 0 {
		t.Fatalf("conns.open = %d after drain, want 0", got)
	}
}

// TestMidFrameHangupIsError kills the connection inside a gob frame: unlike
// a hangup at a message boundary (clean keep-alive end), a peer dying
// mid-message believed it was mid-protocol, so the server must report a
// session error.
func TestMidFrameHangupIsError(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := NewSession(context.Background(), []net.Conn{client}, hello, ClientOptions{Seed: []byte("mf")})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sess.RunBatch(context.Background(), instances(6)); err != nil || !res.AllAccepted() {
		t.Fatalf("batch: %v %v", err, res)
	}
	// A gob frame claiming 5 payload bytes, truncated after 2: the server's
	// next read ends in io.ErrUnexpectedEOF, not a boundary io.EOF.
	if _, err := client.Write([]byte{0x05, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := <-errCh; err == nil {
		t.Fatal("mid-frame hangup treated as clean session end")
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 1 {
		t.Fatalf("session errors = %d, want 1", got)
	}
}

// TestProtocolVersionErrorTyped: every version but ProtocolVersion — the
// gob zero value a pre-versioning peer sends, the retired dialects 1 and
// 2, and an unknown future one — is refused with the typed error, both by
// validate and by a live service, which reports it in the ack.
func TestProtocolVersionErrorTyped(t *testing.T) {
	for _, v := range []int{0, 1, 2, 99} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			h := Hello{Source: sessionSrc}.wire()
			h.Version = v
			var vErr *ProtocolVersionError
			if err := h.validate(); !errors.As(err, &vErr) {
				t.Fatalf("validate: %v, want *ProtocolVersionError", err)
			} else if vErr.Version != v || vErr.Max != ProtocolVersion {
				t.Fatalf("version error: %+v", vErr)
			}

			svc, _ := testService(ServiceOptions{Workers: 1})
			client, errCh := servicePipe(svc)
			defer client.Close()
			cc := newTimedCodec(client, 5*time.Second)
			if err := cc.send(h); err != nil {
				t.Fatal(err)
			}
			var ack HelloAck
			if err := cc.recv(&ack); err != nil {
				t.Fatal(err)
			}
			if ack.Err == "" || ack.SourceNeeded {
				t.Fatalf("server accepted wire version %d: %+v", v, ack)
			}
			serr := <-errCh
			if !errors.As(serr, &vErr) {
				t.Fatalf("server error: %v, want *ProtocolVersionError", serr)
			} else if vErr.Version != v || vErr.Max != ProtocolVersion {
				t.Fatalf("server version error: %+v", vErr)
			}
		})
	}
}

// TestNilCommitRequestRefused speaks raw gob: after one complete batch, a
// second BatchMsg without a commit request must be refused — committing
// it under the previous batch's key would let the prover solve for the
// key's secret vector across the two decommits.
func TestNilCommitRequestRefused(t *testing.T) {
	svc, _ := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	defer client.Close()
	cc := newTimedCodec(client, 5*time.Second)
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	if ack, err := openRaw(cc, hello); err != nil || ack.Err != "" {
		t.Fatalf("hello failed: %v %q", err, ack.Err)
	}
	prog, err := compiler.Compile(hello.fieldOf(), sessionSrc)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := vc.NewVerifier(prog, hello.config(1, []byte("nil-req"), pcp.BackendZaatar))
	if err != nil {
		t.Fatal(err)
	}
	in := instances(3)
	var cms CommitmentsMsg
	if err := cc.send(BatchMsg{Req: verifier.Setup(), Instances: in}); err != nil {
		t.Fatal(err)
	}
	if err := cc.recv(&cms); err != nil || cms.Err != "" {
		t.Fatalf("first batch commit: %v %q", err, cms.Err)
	}
	dreq, err := verifier.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	var resp ResponsesMsg
	if err := cc.send(DecommitMsg{Req: dreq}); err != nil {
		t.Fatal(err)
	}
	if err := cc.recv(&resp); err != nil || resp.Err != "" {
		t.Fatalf("first batch respond: %v %q", err, resp.Err)
	}

	if err := cc.send(BatchMsg{Instances: in}); err != nil {
		t.Fatal(err)
	}
	cms = CommitmentsMsg{}
	if err := cc.recv(&cms); err != nil {
		t.Fatal(err)
	}
	if cms.Err == "" {
		t.Fatal("server committed a batch without a commit request")
	}
	if err := <-errCh; !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("server err = %v, want ErrMalformedHello", err)
	}
}

// TestCacheHitSkipsCompile runs two sessions for the same program: the
// second must be a cache hit, observable both in the counters and — the
// contract the bench leans on — by the absence of a prover.compile span in
// its trace.
func TestCacheHitSkipsCompile(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	var traces [][]trace.Record
	for i := 0; i < 2; i++ {
		tc := trace.New(trace.NewRecorder(4096), "verifier")
		ctx := trace.NewContext(context.Background(), tc)
		client, errCh := servicePipe(svc)
		res, err := runSession(ctx, client, hello, ClientOptions{Seed: []byte{byte(i)}}, instances(4))
		client.Close()
		if serr := <-errCh; serr != nil {
			t.Fatalf("session %d server: %v", i, serr)
		}
		if err != nil || !res.AllAccepted() {
			t.Fatalf("session %d: %v %v", i, err, res)
		}
		traces = append(traces, tc.Recorder().Snapshot())
	}
	if n := len(byName(traces[0], "prover.compile")); n != 1 {
		t.Fatalf("first session: %d prover.compile spans, want 1 (miss)", n)
	}
	if n := len(byName(traces[1], "prover.compile")); n != 0 {
		t.Fatalf("second session: %d prover.compile spans, want 0 (hit)", n)
	}
	if hits, misses := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricCacheMisses).Value(); hits != 1 || misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// cacheTestSrc derives a distinct tiny program per index, so tests can
// populate the LRU with controlled distinct keys.
func cacheTestSrc(i int) string {
	return fmt.Sprintf("input x : int32; output y : int32; y = x + %d;", i)
}

// TestCacheEvictionConcurrent hammers a 2-entry cache with 8 concurrent
// sessions over 4 distinct programs: every session must still verify
// (eviction never breaks an in-flight session, since entries are shared by
// pointer), and the LRU must have evicted and stayed within bounds.
func TestCacheEvictionConcurrent(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2, MaxSessions: 4, CacheSize: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog := i % 4
			hello := Hello{Source: cacheTestSrc(prog), RhoLin: 1, Rho: 1, NoCommitment: true}
			client, errCh := servicePipe(svc)
			res, err := runSession(context.Background(), client, hello, ClientOptions{Seed: []byte{byte(i)}}, instances(int64(i)))
			client.Close()
			if serr := <-errCh; serr != nil {
				errs <- fmt.Errorf("session %d server: %w", i, serr)
				return
			}
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if !res.AllAccepted() {
				errs <- fmt.Errorf("session %d rejected: %v", i, res.Reasons)
				return
			}
			if got := res.Outputs[0][0].Int64(); got != int64(i)+int64(prog) {
				errs <- fmt.Errorf("session %d output %d, want %d", i, got, int64(i)+int64(prog))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.Counter(MetricCacheEntries).Value(); got > 2 {
		t.Fatalf("cache entries = %d, want ≤ 2", got)
	}
	if reg.Counter(MetricCacheEvictions).Value() == 0 {
		t.Fatal("4 programs through a 2-entry cache must evict")
	}
}

// TestAdmissionConcurrentSessions pushes 8 concurrent sessions for one
// program through a 3-slot admission semaphore: all succeed, the
// singleflight cache compiles once, and the active gauge returns to zero.
func TestAdmissionConcurrentSessions(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 4, MaxSessions: 3})
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, errCh := servicePipe(svc)
			res, err := runSession(context.Background(), client, hello, ClientOptions{Seed: []byte{byte(i)}}, instances(int64(i), int64(i)+1))
			client.Close()
			if serr := <-errCh; serr != nil {
				errs <- fmt.Errorf("session %d server: %w", i, serr)
				return
			}
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if !res.AllAccepted() {
				errs <- fmt.Errorf("session %d rejected: %v", i, res.Reasons)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.Counter(MetricSessions).Value(); got != 8 {
		t.Fatalf("sessions = %d, want 8", got)
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 1 {
		t.Fatalf("cache misses = %d, want 1 (singleflight)", got)
	}
	if got := reg.Counter(MetricAdmissionActive).Value(); got != 0 {
		t.Fatalf("admission.active = %d after drain, want 0", got)
	}
}

// TestServeDrain runs the accept loop on a real listener, completes a
// session, then cancels: Serve must close the listener and return nil.
func TestServeDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := testService(ServiceOptions{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	res, err := runSession(context.Background(), conn, hello, ClientOptions{Seed: []byte("sv")}, instances(12))
	conn.Close()
	if err != nil || !res.AllAccepted() {
		t.Fatalf("session over Serve: %v %v", err, res)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after cancel")
	}
}

// TestCloseFrameBeforeAnyBatch opens a session and closes it immediately:
// the goodbye frame must end the server side cleanly with zero batches.
func TestCloseFrameBeforeAnyBatch(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := NewSession(context.Background(), []net.Conn{client}, hello, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.Counter(MetricServedBatches).Value(); got != 0 {
		t.Fatalf("batches = %d, want 0", got)
	}
	if _, err := sess.RunBatch(context.Background(), instances(1)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
}
