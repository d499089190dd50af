package zaatar

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"testing"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/prg"
	"zaatar/internal/vc"
)

func testGroup(t *testing.T) *elgamal.Group {
	t.Helper()
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("api-test"), 0))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestQuickstart(t *testing.T) {
	prog, err := Compile(`
		input x : int32;
		output y : int32;
		y = x - 3;
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog,
		[][]*big.Int{{big.NewInt(10)}, {big.NewInt(0)}},
		WithParams(2, 2), WithGroup(testGroup(t)), WithSeed([]byte("q")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	if res.Outputs[0][0].Int64() != 7 || res.Outputs[1][0].Int64() != -3 {
		t.Fatalf("outputs: %v", res.Outputs)
	}
}

func TestSplitVerifierProver(t *testing.T) {
	prog, err := Compile(`
		input a, b : int32;
		output p : int64;
		p = a * b;
	`)
	if err != nil {
		t.Fatal(err)
	}
	opts := []RunOption{WithParams(1, 1), WithGroup(testGroup(t)), WithSeed([]byte("s"))}
	v, err := NewVerifier(prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p.HandleCommitRequest(v.Setup())
	in := []*big.Int{big.NewInt(6), big.NewInt(7)}
	cm, st, err := p.Commit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := v.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDecommit(dec); err != nil {
		t.Fatal(err)
	}
	resp, err := p.Respond(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	ok, reason := v.VerifyInstance(context.Background(), in, cm, resp)
	if !ok {
		t.Fatalf("rejected: %s", reason)
	}
	if cm.Output[0].Int64() != 42 {
		t.Fatalf("output: %v", cm.Output)
	}
}

func TestGingerOption(t *testing.T) {
	prog, err := Compile(`input x : int16; output y : int32; y = x * x;`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, [][]*big.Int{{big.NewInt(-12)}},
		WithBackend(BackendGinger), WithParams(1, 1), WithoutCommitment(), WithSeed([]byte("g")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() || res.Outputs[0][0].Int64() != 144 {
		t.Fatalf("ginger run failed: %v %v", res.Reasons, res.Outputs)
	}
}

func TestField220Option(t *testing.T) {
	// int64 squaring needs the 220-bit field (see the compiler's range
	// rules).
	src := `input x : int64; output y : int64; y = x * x;`
	if _, err := Compile(src); err == nil {
		t.Fatal("128-bit field should reject int64 squaring")
	}
	prog, err := Compile(src, WithField220())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, [][]*big.Int{{big.NewInt(1 << 31)}},
		WithParams(1, 1), WithoutCommitment(), WithSeed([]byte("f")))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 62)
	if res.Outputs[0][0].Cmp(want) != 0 {
		t.Fatalf("output %v, want %v", res.Outputs[0][0], want)
	}
}

func TestDefaultParamsExported(t *testing.T) {
	p := DefaultParams()
	if p.RhoLin != 20 || p.Rho != 8 {
		t.Fatalf("DefaultParams = %+v", p)
	}
}

func TestRunContextCancelled(t *testing.T) {
	prog, err := Compile(`input x : int32; output y : int32; y = x + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunContext(ctx, prog, [][]*big.Int{{big.NewInt(1)}},
		WithParams(1, 1), WithoutCommitment(), WithSeed([]byte("c")))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWithMetrics(t *testing.T) {
	prog, err := Compile(`input x : int32; output y : int32; y = x + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := Run(prog, [][]*big.Int{{big.NewInt(4)}, {big.NewInt(5)}},
		WithParams(1, 1), WithoutCommitment(), WithSeed([]byte("m")), WithMetrics(reg))
	if err != nil || !res.AllAccepted() {
		t.Fatalf("run failed: %v", err)
	}
	if got := reg.Counter(vc.MetricInstances).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", vc.MetricInstances, got)
	}
	var buf strings.Builder
	reg.WriteText(&buf)
	if !strings.Contains(buf.String(), vc.MetricSpanBatch) {
		t.Fatalf("metrics text missing %s:\n%s", vc.MetricSpanBatch, buf.String())
	}
}
