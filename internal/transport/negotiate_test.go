package transport

import (
	"context"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"

	"zaatar/internal/obs"
	"zaatar/internal/pcp"
)

// sessionSrc (transport_test.go) is pure arithmetic, so it stratifies and
// every registered backend can serve it.

func negotiationBatch() [][]*big.Int {
	return [][]*big.Int{{big.NewInt(10)}, {big.NewInt(-4)}}
}

func checkNegotiationOutputs(t *testing.T, res *SessionResult) {
	t.Helper()
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

// TestNegotiateSumcheck: a client offering [sumcheck, zaatar] against a
// full server lands on sumcheck — and runs the whole session without any
// ElGamal group configured, because the lane needs no commitment crypto.
func TestNegotiateSumcheck(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	conn, errCh := servicePipe(svc)
	hello := Hello{
		Source:   sessionSrc,
		RhoLin:   2,
		Rho:      2,
		Backends: []string{pcp.BackendSumcheck, pcp.BackendZaatar},
	}
	sess, err := NewSession(context.Background(), []net.Conn{conn}, hello, ClientOptions{Seed: []byte("neg")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Backend(); got != pcp.BackendSumcheck {
		t.Fatalf("negotiated %q, want sumcheck", got)
	}
	res, err := sess.RunBatch(context.Background(), negotiationBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkNegotiationOutputs(t, res)
	// Keep-alive second batch exercises the transcript-lane reseed path.
	res, err = sess.RunBatch(context.Background(), negotiationBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkNegotiationOutputs(t, res)
	sess.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.Counter(MetricBackendSessions + pcp.BackendSumcheck).Value(); got != 1 {
		t.Fatalf("pcp.backend.sessions.sumcheck = %d, want 1", got)
	}
}

// TestNegotiateDegrade: against a server built without the sum-check
// backend, the same offer degrades to zaatar.
func TestNegotiateDegrade(t *testing.T) {
	svc, reg := testService(ServiceOptions{
		Workers:  2,
		Backends: []string{pcp.BackendZaatar, pcp.BackendGinger},
	})
	conn, errCh := servicePipe(svc)
	hello := Hello{
		Source:       sessionSrc,
		RhoLin:       2,
		Rho:          2,
		NoCommitment: true,
		Backends:     []string{pcp.BackendSumcheck, pcp.BackendZaatar},
	}
	sess, err := NewSession(context.Background(), []net.Conn{conn}, hello, ClientOptions{Seed: []byte("deg")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Backend(); got != pcp.BackendZaatar {
		t.Fatalf("negotiated %q, want zaatar", got)
	}
	res, err := sess.RunBatch(context.Background(), negotiationBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkNegotiationOutputs(t, res)
	sess.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.Counter(MetricBackendSessions + pcp.BackendZaatar).Value(); got != 1 {
		t.Fatalf("pcp.backend.sessions.zaatar = %d, want 1", got)
	}
}

// TestNegotiateNoCommonBackend: an offer the server cannot meet fails the
// hello with a remote error naming the mismatch.
func TestNegotiateNoCommonBackend(t *testing.T) {
	svc, _ := testService(ServiceOptions{Workers: 2, Backends: []string{pcp.BackendGinger}})
	conn, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, Backends: []string{pcp.BackendSumcheck}}
	_, err := NewSession(context.Background(), []net.Conn{conn}, hello, ClientOptions{})
	if err == nil {
		t.Fatal("session succeeded with no common backend")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Phase != "hello" {
		t.Fatalf("err = %v, want hello-phase RemoteError", err)
	}
	if !strings.Contains(re.Msg, "no common proof backend") {
		t.Fatalf("err = %v, want no-common-backend", err)
	}
	conn.Close()
	if err := <-errCh; err == nil {
		t.Fatal("server reported success for a failed negotiation")
	}
}

// TestNegotiateDistributedMismatch: a distributed batch needs every leg on
// the same backend; servers restricted to disjoint picks must fail the
// session at negotiation time.
func TestNegotiateDistributedMismatch(t *testing.T) {
	svcA, _ := testService(ServiceOptions{Workers: 2}) // picks sumcheck
	svcB, _ := testService(ServiceOptions{Workers: 2, Backends: []string{pcp.BackendZaatar}})
	connA, errA := servicePipe(svcA)
	connB, errB := servicePipe(svcB)
	hello := Hello{
		Source:   sessionSrc,
		RhoLin:   1,
		Rho:      1,
		Backends: []string{pcp.BackendSumcheck, pcp.BackendZaatar},
	}
	_, err := NewSession(context.Background(), []net.Conn{connA, connB}, hello, ClientOptions{})
	if err == nil {
		t.Fatal("session succeeded with disagreeing legs")
	}
	if !errors.Is(err, ErrNoCommonBackend) {
		t.Fatalf("err = %v, want ErrNoCommonBackend", err)
	}
	connA.Close()
	connB.Close()
	<-errA
	<-errB
}

// TestHelloBackendsValidation: oversized or malformed offers are rejected
// before any work happens.
func TestHelloBackendsValidation(t *testing.T) {
	base := Hello{Source: sessionSrc}.wire()
	tooMany := base
	tooMany.Backends = make([]string, maxBackends+1)
	for i := range tooMany.Backends {
		tooMany.Backends[i] = "b"
	}
	if err := tooMany.validate(); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("oversized offer: %v", err)
	}
	empty := base
	empty.Backends = []string{""}
	if err := empty.validate(); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("empty name: %v", err)
	}
	long := base
	long.Backends = []string{strings.Repeat("x", maxBackendBytes+1)}
	if err := long.validate(); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("long name: %v", err)
	}
	ok := base
	ok.Backends = []string{pcp.BackendSumcheck, pcp.BackendZaatar}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid offer rejected: %v", err)
	}
}

// TestCacheKeyedByBackend: the same source negotiated under two backends
// builds two cache entries (regression for the key being derived from the
// hello's Ginger bool in one place and the config in another).
func TestCacheKeyedByBackend(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2, Obs: obs.NewRegistry()})
	for _, offer := range [][]string{
		{pcp.BackendSumcheck},
		{pcp.BackendZaatar},
		{pcp.BackendSumcheck}, // repeat: must hit, not rebuild
	} {
		conn, errCh := servicePipe(svc)
		hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true, Backends: offer}
		sess, err := NewSession(context.Background(), []net.Conn{conn}, hello, ClientOptions{Seed: []byte("ck")})
		if err != nil {
			t.Fatalf("%v: %v", offer, err)
		}
		if got := sess.Backend(); got != offer[0] {
			t.Fatalf("negotiated %q, want %q", got, offer[0])
		}
		res, err := sess.RunBatch(context.Background(), negotiationBatch())
		if err != nil {
			t.Fatalf("%v: %v", offer, err)
		}
		checkNegotiationOutputs(t, res)
		sess.Close()
		if err := <-errCh; err != nil {
			t.Fatalf("server: %v", err)
		}
	}
	if misses := reg.Counter(MetricCacheMisses).Value(); misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (one per backend)", misses)
	}
	if hits := reg.Counter(MetricCacheHits).Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}
