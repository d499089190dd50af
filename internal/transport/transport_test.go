package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/vc"
)

const sessionSrc = `
input x : int32;
output y : int32;
output sq : int64;
y = x - 3;
sq = x * x;
`

// runSession opens a session over conn, runs one batch and closes it.
func runSession(ctx context.Context, conn net.Conn, hello Hello, opts ClientOptions, batch [][]*big.Int) (*SessionResult, error) {
	sess, err := NewSession(ctx, []net.Conn{conn}, hello, opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.RunBatch(ctx, batch)
}

// openRaw speaks the client half of the opening exchange by hand: the
// hello's wire copy, the source upload when the server asks, and the
// definitive ack.
func openRaw(cc *timedCodec, h Hello) (HelloAck, error) {
	var ack HelloAck
	if err := cc.send(h.wire()); err != nil {
		return ack, err
	}
	if err := cc.recv(&ack); err != nil || !ack.SourceNeeded {
		return ack, err
	}
	if err := cc.send(SourceMsg{Source: h.Source}); err != nil {
		return ack, err
	}
	ack = HelloAck{}
	err := cc.recv(&ack)
	return ack, err
}

// serveHello is the prover half of the opening exchange for hand-rolled
// test provers that cache nothing: take the hello, ask for the source,
// compile it, and ack with the first offered backend.
func serveHello(dec *gob.Decoder, enc *gob.Encoder) (Hello, *compiler.Program, error) {
	var h Hello
	if err := dec.Decode(&h); err != nil {
		return h, nil, err
	}
	if err := enc.Encode(HelloAck{SourceNeeded: true, Version: ProtocolVersion}); err != nil {
		return h, nil, err
	}
	var src SourceMsg
	if err := dec.Decode(&src); err != nil {
		return h, nil, err
	}
	h.Source = src.Source
	prog, err := compiler.Compile(h.fieldOf(), h.Source)
	if err != nil {
		return h, nil, err
	}
	ack := HelloAck{NumInputs: prog.NumInputs(), NumOutputs: prog.NumOutputs(), Version: ProtocolVersion, Backend: h.Backends[0]}
	return h, prog, enc.Encode(ack)
}

func runPipeSession(t *testing.T, hello Hello, opts ClientOptions, batch [][]*big.Int) (*SessionResult, error) {
	t.Helper()
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- ServeConn(context.Background(), server, ServerOptions{Workers: 2}) }()
	res, err := runSession(context.Background(), client, hello, opts, batch)
	client.Close()
	<-errCh
	return res, err
}

func TestSessionNoCrypto(t *testing.T) {
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	batch := [][]*big.Int{{big.NewInt(10)}, {big.NewInt(-4)}}
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("t")}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	if res.Outputs[0][0].Int64() != 7 || res.Outputs[0][1].Int64() != 100 {
		t.Fatalf("outputs: %v", res.Outputs[0])
	}
	if res.Outputs[1][0].Int64() != -7 || res.Outputs[1][1].Int64() != 16 {
		t.Fatalf("outputs: %v", res.Outputs[1])
	}
}

func TestSessionWithCrypto(t *testing.T) {
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("tg"), 0))
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1}
	batch := [][]*big.Int{{big.NewInt(5)}}
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("c"), Group: g}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	if res.Outputs[0][0].Int64() != 2 || res.Outputs[0][1].Int64() != 25 {
		t.Fatalf("outputs: %v", res.Outputs[0])
	}
}

func TestSessionGinger(t *testing.T) {
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true, Backends: []string{pcp.BackendGinger}}
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("g")}, [][]*big.Int{{big.NewInt(6)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() || res.Outputs[0][1].Int64() != 36 {
		t.Fatalf("ginger session failed: %v %v", res.Reasons, res.Outputs)
	}
}

func TestSessionParallelVerify(t *testing.T) {
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	batch := make([][]*big.Int, 6)
	for i := range batch {
		batch[i] = []*big.Int{big.NewInt(int64(i))}
	}
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("pv"), Workers: 4}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	for i := range batch {
		if res.Outputs[i][0].Int64() != int64(i)-3 {
			t.Fatalf("instance %d output %v", i, res.Outputs[i])
		}
	}
}

func TestSessionBadProgram(t *testing.T) {
	hello := Hello{Source: "not a program", RhoLin: 1, Rho: 1, NoCommitment: true}
	// The client compiles the program itself before dialing, so it fails
	// locally without touching the wire.
	if _, err := runSession(context.Background(), nil, hello, ClientOptions{}, [][]*big.Int{{big.NewInt(1)}}); err == nil {
		t.Fatal("bad program accepted by client")
	}
	// A server fed the same hello raw reports the compile failure in its ack
	// and survives.
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- ServeConn(context.Background(), server, ServerOptions{}) }()
	cc := newTimedCodec(client, 5*time.Second)
	ack, err := openRaw(cc, hello)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if ack.Err == "" {
		t.Fatal("server compiled a bad program")
	}
	if err := <-serverErr; err == nil {
		t.Fatal("server reported success for a bad program")
	}
}

func TestSessionOversizedBatch(t *testing.T) {
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- ServeConn(context.Background(), server, ServerOptions{MaxBatch: 1}) }()
	batch := [][]*big.Int{{big.NewInt(1)}, {big.NewInt(2)}}
	_, err := runSession(context.Background(), client, hello, ClientOptions{Seed: []byte("x")}, batch)
	client.Close()
	// The client sees the rejection as a typed commit-phase failure naming
	// the batch bound; the server reports the sentinel and survives.
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Phase != "commit" {
		t.Fatalf("client err = %v, want *RemoteError in commit phase", err)
	}
	if !strings.Contains(remote.Msg, ErrBatchTooLarge.Error()) {
		t.Fatalf("remote msg %q does not name the batch bound", remote.Msg)
	}
	if err := <-serverErr; !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("server err = %v, want ErrBatchTooLarge", err)
	}
}

func TestSessionMalformedHello(t *testing.T) {
	cases := []struct {
		name  string
		hello Hello
	}{
		{"empty source", Hello{RhoLin: 1, Rho: 1, NoCommitment: true}},
		{"negative repetitions", Hello{Source: sessionSrc, RhoLin: -1, Rho: 1, NoCommitment: true}},
		{"huge repetitions", Hello{Source: sessionSrc, RhoLin: 1, Rho: maxRepetitions + 1, NoCommitment: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Client-side validation rejects before anything hits the wire.
			if _, err := runSession(context.Background(), nil, tc.hello, ClientOptions{}, nil); !errors.Is(err, ErrMalformedHello) {
				t.Fatalf("client validation err = %v, want ErrMalformedHello", err)
			}
			// A server receiving it raw reports the sentinel and survives.
			client, server := net.Pipe()
			serverErr := make(chan error, 1)
			go func() { serverErr <- ServeConn(context.Background(), server, ServerOptions{}) }()
			cc := newTimedCodec(client, time.Second)
			ack, err := openRaw(cc, tc.hello)
			if err != nil {
				t.Fatal(err)
			}
			client.Close()
			if ack.Err == "" {
				t.Fatal("server accepted a malformed hello")
			}
			if err := <-serverErr; !errors.Is(err, ErrMalformedHello) {
				t.Fatalf("server err = %v, want ErrMalformedHello", err)
			}
		})
	}
}

// A client that vanishes mid-session must not wedge or panic the server: the
// session goroutine returns an error and the server survives for the next
// connection.
func TestServerSurvivesMidSessionDisconnect(t *testing.T) {
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	reg := obs.NewRegistry()
	go func() { serverErr <- ServeConn(context.Background(), server, ServerOptions{Obs: reg}) }()

	// Speak the first half of the protocol by hand, then hang up after
	// receiving the commitments (the server is now blocked on the decommit).
	cc := newTimedCodec(client, 5*time.Second)
	if ack, err := openRaw(cc, hello); err != nil || ack.Err != "" {
		t.Fatalf("hello failed: %v %q", err, ack.Err)
	}
	if err := cc.send(BatchMsg{Req: &vc.CommitRequest{}, Instances: [][]*big.Int{{big.NewInt(4)}}}); err != nil {
		t.Fatal(err)
	}
	var cms CommitmentsMsg
	if err := cc.recv(&cms); err != nil || cms.Err != "" {
		t.Fatalf("commit failed: %v %q", err, cms.Err)
	}
	client.Close()

	select {
	case err := <-serverErr:
		if err == nil {
			t.Fatal("server reported success for a half-finished session")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server goroutine never returned after client disconnect")
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSessionErrors, got)
	}
	// The server is still able to run a fresh, complete session.
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("again")}, [][]*big.Int{{big.NewInt(9)}})
	if err != nil || !res.AllAccepted() {
		t.Fatalf("follow-up session failed: %v", err)
	}
}

// A stalled peer must not hold a session past the IO deadline.
func TestServerIOTimeout(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- ServeConn(context.Background(), server, ServerOptions{IOTimeout: 50 * time.Millisecond})
	}()
	// Send nothing: the hello read must time out.
	select {
	case err := <-serverErr:
		if err == nil {
			t.Fatal("server returned nil for a silent client")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server ignored the IO deadline")
	}
}

// Garbage bytes (not a gob stream) must fail the session, not crash it.
func TestServerSurvivesGarbage(t *testing.T) {
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- ServeConn(context.Background(), server, ServerOptions{}) }()
	go func() {
		_, _ = client.Write([]byte("\x00\xffnot gob at all\x13\x37"))
		client.Close()
	}()
	select {
	case err := <-serverErr:
		if err == nil {
			t.Fatal("server decoded garbage as a session")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on garbage input")
	}
}

// Cancelling the server's context mid-session unblocks its I/O and surfaces
// ctx.Err().
func TestServeConnContextCancel(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	serverErr := make(chan error, 1)
	go func() { serverErr <- ServeConn(ctx, server, ServerOptions{}) }()
	cancel()
	select {
	case err := <-serverErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled server never returned")
	}
}

// Cancelling the client's context mid-session closes its connections and
// surfaces ctx.Err().
func TestRunSessionContextCancel(t *testing.T) {
	client, server := net.Pipe()
	// No server loop: the client will block writing its hello into the pipe.
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	clientErr := make(chan error, 1)
	go func() {
		hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
		_, err := runSession(ctx, client, hello, ClientOptions{Seed: []byte("cc")}, [][]*big.Int{{big.NewInt(1)}})
		clientErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-clientErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled client never returned")
	}
}

func TestSessionOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = ServeConn(context.Background(), conn, ServerOptions{Workers: 2, IOTimeout: 30 * time.Second})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	res, err := runSession(context.Background(), conn, hello, ClientOptions{Seed: []byte("tcp"), IOTimeout: 30 * time.Second}, [][]*big.Int{{big.NewInt(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() || res.Outputs[0][0].Int64() != 5 {
		t.Fatalf("tcp session failed: %v %v", res.Reasons, res.Outputs)
	}
}
