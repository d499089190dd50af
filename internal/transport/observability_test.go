package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"

	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
)

// syncBuffer serializes concurrent log writes (the server logs from its
// session goroutine).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestStructuredLogsJoinTrace is the acceptance check for log↔trace
// correlation: a traced client↔server run with JSON logging on both sides
// yields log records whose trace_id equals the session's trace identifier
// in the exact %016x form the Perfetto export renders, and whose span_id
// appears among the exported spans.
func TestStructuredLogsJoinTrace(t *testing.T) {
	var serverLog, clientLog syncBuffer
	reg := obs.NewRegistry()
	svc := NewService(ServiceOptions{
		Workers: 2,
		Obs:     reg,
		Logger:  obs.NewLogger(&serverLog, "json"),
	})
	client, errCh := servicePipe(svc)

	rec := trace.NewRecorder(4096)
	tc := trace.New(rec, "verifier")
	ctx := trace.NewContext(context.Background(), tc)

	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	sess, err := NewSession(ctx, []net.Conn{client}, hello, ClientOptions{
		Seed:   []byte("corr"),
		Obs:    reg,
		Logger: obs.NewLogger(&clientLog, "json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunBatch(ctx, instances(10, -4))
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, res, []int64{10, -4})
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}

	wantTrace := obs.TraceIDString(uint64(tc.TraceID()))

	// The exported trace (what -trace writes to disk) renders the same ids;
	// collect its span set for the join.
	var exported bytes.Buffer
	if err := trace.WriteChrome(&exported, rec.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exported.String(), wantTrace) {
		t.Fatalf("exported trace does not mention trace id %s", wantTrace)
	}
	spanIDs := make(map[string]bool)
	for _, r := range rec.Snapshot() {
		spanIDs[obs.TraceIDString(uint64(r.Span))] = true
		spanIDs[obs.TraceIDString(uint64(r.Parent))] = true
	}

	for side, buf := range map[string]*syncBuffer{"server": &serverLog, "client": &clientLog} {
		lines := buf.lines()
		if len(lines) == 0 || lines[0] == "" {
			t.Fatalf("%s produced no log records", side)
		}
		joined := 0
		for _, line := range lines {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("%s log line is not JSON: %v\n%s", side, err, line)
			}
			tid, ok := m["trace_id"].(string)
			if !ok {
				continue // records logged outside a traced context
			}
			if tid != wantTrace {
				t.Fatalf("%s log %q carries trace_id %s, want %s", side, m["msg"], tid, wantTrace)
			}
			if sid, ok := m["span_id"].(string); ok && spanIDs[sid] {
				joined++
			}
		}
		if joined == 0 {
			t.Fatalf("%s: no log record's span_id joins the exported trace:\n%s", side, strings.Join(lines, "\n"))
		}
	}

	// Server-side session records must carry the tenant attribution fields.
	var sawBatch bool
	for _, line := range serverLog.lines() {
		var m map[string]any
		_ = json.Unmarshal([]byte(line), &m)
		if m["msg"] == "batch served" {
			sawBatch = true
			if m[LabelBackend] == "" || m[LabelProgramHash] != ProgramHash(sessionSrc) {
				t.Fatalf("batch record missing tenant attribution: %v", m)
			}
			if _, ok := m["session"]; !ok {
				t.Fatalf("batch record missing session id: %v", m)
			}
		}
	}
	if !sawBatch {
		t.Fatal("server never logged a batch")
	}
}

// TestLabeledTransportMetrics is the acceptance check for the per-tenant
// metric breakdown: after a run, the Prometheus exposition shows
// transport.batches and transport.instances broken out by backend and
// program_hash, transport.sessions by backend, and the SLO gauges present.
func TestLabeledTransportMetrics(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	res, err := runSession(context.Background(), client, hello, ClientOptions{Seed: []byte("lm"), Obs: reg}, instances(10))
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, res, []int64{10})
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}

	phash := ProgramHash(sessionSrc)
	backend := "zaatar" // legacy bool hello negotiates the zaatar backend

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		// Unlabeled aggregates survive alongside the labeled series, under
		// one TYPE header per name.
		"zaatar_transport_batches_total 1",
		`zaatar_transport_batches_total{backend="` + backend + `",program_hash="` + phash + `"} 1`,
		`zaatar_transport_instances_total{backend="` + backend + `",program_hash="` + phash + `"} 1`,
		`zaatar_transport_sessions_total{backend="` + backend + `"} 1`,
		"# TYPE zaatar_transport_slo_p99_seconds gauge",
		"zaatar_transport_slo_requests 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE zaatar_transport_batches_total counter") != 1 {
		t.Fatalf("transport.batches TYPE header not merged:\n%s", out)
	}

	// The labeled vc phase histograms recorded on the client side under the
	// same registry.
	if !strings.Contains(out, `zaatar_vc_phase_seconds_count{phase="verify",backend="`+backend+`"}`) {
		t.Fatalf("vc.phase labeled histogram missing:\n%s", out)
	}

	// Error-rate accounting: a failed session ticks the SLO error gauge.
	bad, errCh2 := servicePipe(svc)
	if _, err := runSession(context.Background(), bad, Hello{Source: "nonsense {"}, ClientOptions{Obs: reg}, instances(1)); err == nil {
		t.Fatal("malformed source unexpectedly accepted")
	}
	bad.Close() // the client fails before the hello; unblock the server's read
	<-errCh2
	if v, ok := reg.GaugeValue(MetricSLOPrefix + obs.SLOGaugeErrorRate); !ok || v <= 0 {
		t.Fatalf("SLO error rate = %v, %v; want > 0 after a failed session", v, ok)
	}
}
