package farm

import (
	"context"
	"encoding/gob"
	"fmt"
	"math/big"
	"net"
	"testing"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/transport"
	"zaatar/internal/vc"
)

// lyingEndpoint wraps an honest endpoint and perturbs the first answer of
// the round's instance 0 before the driver sees it.
type lyingEndpoint struct {
	vc.Endpoint
	f *field.Field
}

func (e lyingEndpoint) Respond(ctx context.Context, dreq *vc.DecommitRequest, emit func(int, *vc.Response) error) error {
	return e.Endpoint.Respond(ctx, dreq, func(i int, r *vc.Response) error {
		if i == 0 {
			r.R1[0] = e.f.Add(r.R1[0], e.f.One())
		}
		return emit(i, r)
	})
}

// serveLying is a wire peer that serves every batch through the shared
// vc.LocalProver loops, honestly except for a lyingEndpoint's perturbed
// answer (instance 0 of each batch).
func serveLying(conn net.Conn) {
	defer conn.Close()
	ctx := context.Background()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	var h transport.Hello
	var src transport.SourceMsg
	if dec.Decode(&h) != nil ||
		enc.Encode(transport.HelloAck{SourceNeeded: true, Version: transport.ProtocolVersion}) != nil ||
		dec.Decode(&src) != nil {
		return
	}
	prog, err := compiler.Compile(field.F128(), src.Source)
	if err != nil {
		return
	}
	cfg := vc.Config{Params: pcp.Params{RhoLin: h.RhoLin, Rho: h.Rho}, NoCommitment: h.NoCommitment}
	prover, err := vc.NewProver(prog, cfg)
	if err != nil {
		return
	}
	ack := transport.HelloAck{NumInputs: prog.NumInputs(), NumOutputs: prog.NumOutputs(),
		Version: transport.ProtocolVersion, Backend: pcp.BackendZaatar}
	if enc.Encode(ack) != nil {
		return
	}
	ep := lyingEndpoint{Endpoint: &vc.LocalProver{Prover: prover, Workers: 1}, f: prog.Field}
	for {
		var b transport.BatchMsg
		if dec.Decode(&b) != nil || b.Close {
			return
		}
		cms, err := ep.Commit(ctx, b.Req, b.Instances)
		if err != nil {
			_ = enc.Encode(transport.CommitmentsMsg{Err: err.Error()})
			return
		}
		var d transport.DecommitMsg
		if enc.Encode(transport.CommitmentsMsg{Items: cms}) != nil || dec.Decode(&d) != nil {
			return
		}
		resp := transport.ResponsesMsg{Items: make([]*vc.Response, len(cms))}
		if err := ep.Respond(ctx, d.Req, func(i int, r *vc.Response) error {
			resp.Items[i] = r
			return nil
		}); err != nil {
			resp = transport.ResponsesMsg{Err: err.Error()}
		}
		if enc.Encode(resp) != nil {
			return
		}
	}
}

// dialWorkers opens a session over one in-process worker per entry of
// lying: a lying peer where true, an honest transport server otherwise.
func dialWorkers(t *testing.T, lying []bool, hello transport.Hello, copts transport.ClientOptions) *transport.Session {
	t.Helper()
	conns := make([]net.Conn, len(lying))
	for i, lie := range lying {
		client, server := net.Pipe()
		if lie {
			go serveLying(server)
		} else {
			go func() { _ = transport.ServeConn(context.Background(), server, transport.ServerOptions{Workers: 1}) }()
		}
		conns[i] = client
		copts.Addrs = append(copts.Addrs, fmt.Sprintf("worker-%d", i))
	}
	sess, err := transport.NewSession(context.Background(), conns, hello, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// checkLies asserts that exactly the instances in lied were rejected, each
// with a reason, and that vc.rejected counted each of them once.
func checkLies(t *testing.T, reg *obs.Registry, accepted []bool, reasons []string, lied ...int) {
	t.Helper()
	want := map[int]bool{}
	for _, i := range lied {
		want[i] = true
	}
	for i, ok := range accepted {
		if ok == want[i] {
			t.Errorf("instance %d: accepted = %v, want %v (reason %q)", i, ok, !want[i], reasons[i])
		}
		if want[i] && reasons[i] == "" {
			t.Errorf("instance %d rejected without a reason", i)
		}
	}
	if got := reg.Counter(vc.MetricRejected).Value(); got != int64(len(lied)) {
		t.Errorf("%s = %d, want %d", vc.MetricRejected, got, len(lied))
	}
}

// TestLyingProverRejectedOnEveryPath: a prover that perturbs one answer is
// caught, and counted in vc.rejected, whichever path drives the round.
func TestLyingProverRejectedOnEveryPath(t *testing.T) {
	hello := transport.Hello{Source: farmSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	ctx := context.Background()

	t.Run("local", func(t *testing.T) {
		reg := obs.NewRegistry()
		prog, err := compiler.Compile(field.F128(), farmSrc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vc.Config{Params: pcp.Params{RhoLin: 2, Rho: 2}, NoCommitment: true, Obs: reg}
		v, err := vc.NewVerifier(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := vc.NewProver(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ep := lyingEndpoint{Endpoint: &vc.LocalProver{Prover: p, Workers: 2}, f: prog.Field}
		res, err := vc.Drive(ctx, v, ep, intBatch(3), 2)
		if err != nil {
			t.Fatal(err)
		}
		checkLies(t, reg, res.Accepted, res.Reasons, 0)
	})

	t.Run("wire", func(t *testing.T) {
		reg := obs.NewRegistry()
		sess := dialWorkers(t, []bool{true}, hello, transport.ClientOptions{Obs: reg})
		res, err := sess.RunBatch(ctx, intBatch(3))
		if err != nil {
			t.Fatal(err)
		}
		checkLies(t, reg, res.Accepted, res.Reasons, 0)
	})

	t.Run("farm-shard", func(t *testing.T) {
		reg := obs.NewRegistry()
		sess := dialWorkers(t, []bool{true, true}, hello, transport.ClientOptions{Obs: reg})
		f, err := New(sess, Options{ShardSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunBatch(ctx, intBatch(4))
		if err != nil {
			t.Fatal(err)
		}
		// Each shard is its own round, so each shard's first instance lies.
		checkLies(t, reg, res.Accepted, res.Reasons, 0, 2)
	})

	t.Run("farm-wide", func(t *testing.T) {
		g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("fg"), 0))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		wide := transport.Hello{Source: farmSrc, RhoLin: 1, Rho: 1}
		// Worker 0 fronts the group, so its responses are the ones verified.
		sess := dialWorkers(t, []bool{true, false}, wide, transport.ClientOptions{Group: g, Obs: reg})
		f, err := New(sess, Options{WideCommit: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunBatch(ctx, [][]*big.Int{{big.NewInt(9)}})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter(MetricWideSplits).Value(); got != 1 {
			t.Fatalf("farm.wide.splits = %d, want 1", got)
		}
		checkLies(t, reg, res.Accepted, res.Reasons, 0)
	})
}
