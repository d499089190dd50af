package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/big"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"

	"zaatar"
	"zaatar/internal/obs/trace"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{n: 1000, ok: true, p: 99, value: 990, beyond: 10},
		{n: 999, ok: true, p: 95, value: 950, beyond: 49}, // p99 would leave 9
		{n: 100, ok: true, p: 90, value: 90, beyond: 10},
		{n: 99, ok: true, p: 75, value: 75, beyond: 24}, // p90 would leave 9
		{n: 44, ok: true, p: 75, value: 33, beyond: 11},
		{n: 40, ok: true, p: 75, value: 30, beyond: 10},
		{n: 39, ok: false}, // p75 would leave 9
		{n: 5, ok: false},
	} {
		got, ok := tailOf(seq(tc.n))
		if ok != tc.ok {
			t.Fatalf("n=%d: ok=%v, want %v (%+v)", tc.n, ok, tc.ok, got)
		}
		if !ok {
			continue
		}
		if got.P != tc.p || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%g = %g with %d beyond", tc.n, got, tc.p, tc.value, tc.beyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", tc.n, got.Beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

// rec builds a record in milliseconds.
func rec(id, parent uint64, name, proc string, startMs, endMs int64) trace.Record {
	const ms = int64(1e6)
	return trace.Record{Span: trace.SpanID(id), Parent: trace.SpanID(parent), Name: name, Proc: proc,
		Start: 1e12 + startMs*ms, Dur: (endMs - startMs) * ms}
}

func TestSelfTimeTree(t *testing.T) {
	recs := []trace.Record{
		rec(2, 0, spanBatch, clientProc, 100, 200),
		// The client's batch span hangs off its session: re-attached to the root.
		rec(3, 9, "transport.session", clientProc, 0, 1000),
		rec(4, 3, "transport.batch", clientProc, 105, 195),
		rec(5, 4, "wire.commit_exchange", clientProc, 110, 140),
		rec(6, 4, "wire.respond_exchange", clientProc, 150, 190),
		// Server spans: the batch hangs off the server's session span and is
		// stitched under the innermost client span containing it.
		rec(7, 3, "transport.serve", "prover", 50, 60),
		rec(8, 7, "transport.batch", "prover", 112, 188),
		rec(10, 8, "vc.commit", "prover", 115, 135),
		rec(11, 8, "vc.respond", "prover", 155, 185),
		// Outside every batch: dropped.
		rec(12, 3, "transport.batch", clientProc, 300, 400),
	}
	f := buildForest(recs)
	if len(f.violations) != 0 {
		t.Fatalf("violations: %v", f.violations)
	}
	bs := f.batches()
	if len(bs) != 1 {
		t.Fatalf("got %d batch roots", len(bs))
	}
	shares := map[string]int64{}
	for _, s := range attribution(bs) {
		shares[s.path] = int64(s.self) / 1e6
	}
	want := map[string]int64{
		"bench.batch":                 10, // 100 − 90 covered by transport.batch
		"bench.batch/transport.batch": 10, // children cover 110..190
		"bench.batch/transport.batch/wire.commit_exchange":                     30,
		"bench.batch/transport.batch/wire.respond_exchange":                    40,
		"bench.batch/transport.batch/transport.batch@prover":                   26, // 76 − 20 − 30
		"bench.batch/transport.batch/transport.batch@prover/vc.commit@prover":  20,
		"bench.batch/transport.batch/transport.batch@prover/vc.respond@prover": 30,
	}
	if len(shares) != len(want) {
		t.Errorf("got paths %v, want %v", shares, want)
	}
	for p, w := range want {
		if shares[p] != w {
			t.Errorf("self(%s) = %d ms, want %d", p, shares[p], w)
		}
	}
	if got := sum(bs, "prover", "vc.commit") / 1e6; got != 20 {
		t.Errorf("sum(vc.commit@prover) = %d ms", got)
	}
}

func TestSelfTimeFlagsChildOutlastingParent(t *testing.T) {
	f := buildForest([]trace.Record{
		rec(1, 0, spanBatch, clientProc, 0, 100),
		rec(2, 1, "vc.batch", clientProc, 0, 50),
		rec(3, 2, "vc.commit", clientProc, 10, 80), // recorded under vc.batch yet longer
	})
	if len(f.violations) != 1 || !strings.Contains(f.violations[0], "vc.commit") {
		t.Fatalf("violations = %v", f.violations)
	}
}

func TestCovered(t *testing.T) {
	n := func(a, b int64) *node { return &node{rec: trace.Record{Start: a, Dur: b - a}, end: b} }
	spans := []*node{n(5, 10), n(8, 12), n(20, 30), n(25, 26), n(-5, 2)}
	if got := covered(0, 28, spans); got != 2+7+8 {
		t.Errorf("covered = %d, want 17", got)
	}
}

func TestCountingListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := newCountingListener(ln)
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("1234567"))
		done <- err
	}()
	c, err := net.Dial("tcp", cl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 7)
	if _, err := io.ReadFull(c, reply); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := wireMeter{cl}.snapshot()
	if got.in != 5 || got.out != 7 || got.total() != 12 {
		t.Errorf("counted %+v, want in 5 out 7", got)
	}
	if d := got.sub(wireBytes{in: 1, out: 2}); d != (wireBytes{in: 4, out: 5}) {
		t.Errorf("sub = %+v", d)
	}
}

func TestErrorRateAccounting(t *testing.T) {
	p := &decrement
	in := func(x int64) []*big.Int { return []*big.Int{big.NewInt(x)} }
	batch := [][]*big.Int{in(10), in(20), in(30), in(40)}
	var l ledger
	// Instance 1 rejected, instance 2 accepted with a wrong output.
	l.score(p, batch, []bool{true, false, true, true},
		[][]*big.Int{{big.NewInt(7)}, {big.NewInt(17)}, {big.NewInt(28)}, {big.NewInt(37)}}, nil)
	// A batch that errored: every instance attempted, one failure.
	l.score(p, batch, nil, nil, errors.New("leg lost"))
	l.sessErrs++
	if l.attempted != 8 || l.verified != 2 || l.rejected != 1 || l.mismatched != 1 || l.batchErrs != 1 {
		t.Fatalf("ledger = %+v", l)
	}
	if got, want := l.errorRate(), 4.0/8; got != want {
		t.Errorf("error rate = %g, want %g", got, want)
	}
	var clean ledger
	clean.score(p, batch[:1], []bool{true}, [][]*big.Int{{big.NewInt(7)}}, nil)
	if clean.failures() != 0 || clean.errorRate() != 0 {
		t.Errorf("clean ledger = %+v", clean)
	}
}

// The frozen references must agree with the compiled programs' own
// execution, so that a verified wrong output can never pass as correct.
func TestReferencesMatchExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []*program{&lcs10, &decrement, &lookup, &matmul4} {
		prog, err := zaatar.Compile(p.source)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for i := 0; i < 20; i++ {
			in := p.gen(rng)
			got, err := prog.Execute(in)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if !sameOutputs(got, p.ref(in)) {
				t.Fatalf("%s(%v): program gives %v, reference %v", p.name, in, got, p.ref(in))
			}
		}
	}
}

// The measured LCS must stay the paper-scale instance the workload names:
// |C| = 2294 constraints over |Z| = 2215 variables counting its 21 io wires.
func TestLCSShape(t *testing.T) {
	prog, err := zaatar.Compile(lcs10.source)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	z := st.ZaatarVars + prog.NumInputs() + prog.NumOutputs()
	if st.ZaatarConstraints != 2294 || z != 2215 {
		t.Errorf("LCS m=10 has |C|=%d |Z|=%d, want 2294 and 2215", st.ZaatarConstraints, z)
	}
}

func TestCanariesReject(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the production-parameter protocol")
	}
	if err := canaries(context.Background(), rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayerDefs)
}
