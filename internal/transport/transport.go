// Package transport runs the verified-computation protocol between a
// verifier and a prover connected by any net.Conn, with gob-encoded
// messages. This realizes the deployment picture of Figure 1: the verifier
// ships the computation Ψ and the batch of inputs; per [53] Apdx A.3 the
// query material crossing the wire is one encrypted commitment vector, a
// PRG seed, and the consistency points, rather than full query sets.
//
// One wire dialect is spoken (ProtocolVersion). The hello names the
// program by sha256(source) and offers the proof backends the client can
// verify; the server answers SourceNeeded only when neither its memory
// cache nor its disk artifact store (internal/store,
// ServiceOptions.Store) holds the program, and a warm server opens the
// session with the program never crossing the wire. After the hello/ack
// exchange a connection carries any number of batches, all reusing the
// negotiated program (and, server-side, its cached compilation and QAP
// precomputation), until a Close frame. Each batch carries its own commit
// request: the commitment key is per-batch — a decommit reveals a
// consistency point over the key's secret vector, so a key reused across
// batches would stop binding.
//
// The prover side is a long-lived multi-tenant Service: compiled programs
// and their prover precomputations live in an LRU shared across sessions,
// and a service-wide admission semaphore bounds how many sessions compute
// concurrently. The verifier side is a Session (NewSession / RunBatch /
// Close) driving its prover through vc.Drive; a farm (internal/farm)
// drives a session over several provers leg by leg.
//
// Both ends are context-aware: cancelling the context closes the
// connection, unblocking any in-flight read or write, and per-message I/O
// deadlines bound how long a stalled peer can hold a session. Failures
// reported by the peer surface as *RemoteError; local protocol violations
// wrap the Err* sentinel errors, and version mismatches surface as
// *ProtocolVersionError.
//
// cmd/zaatar-server and cmd/zaatar-client reach this package through the
// public zaatar API (zaatar.Serve, zaatar.Client); tests drive both ends
// over net.Pipe.
package transport

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strings"
	"time"

	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// ProtocolVersion is the one wire dialect this build speaks: hash-first
// hellos, keep-alive sessions with a commit request per batch, and a
// Close frame. A hello carrying any other version is refused with a
// *ProtocolVersionError.
const ProtocolVersion = 3

// Typed failures. Peer-reported errors are *RemoteError; local validation
// failures wrap the sentinels.
var (
	// ErrBatchTooLarge reports a batch outside the server's [1, MaxBatch]
	// window.
	ErrBatchTooLarge = errors.New("transport: batch size out of range")
	// ErrMalformedHello reports a session-opening message that fails
	// validation (no source hash, an inline source, an empty backend offer,
	// out-of-range parameters, a source upload that does not match its
	// hash) or a batch without a commit request.
	ErrMalformedHello = errors.New("transport: malformed hello")
	// ErrSessionClosed reports a RunBatch on a closed Session.
	ErrSessionClosed = errors.New("transport: session closed")
	// ErrNoCommonBackend reports a hello whose offered proof backends share
	// no member with the server's supported set.
	ErrNoCommonBackend = errors.New("transport: no common proof backend")
	// ErrSourceTooLarge reports a source upload beyond the server's size
	// limit (ServiceOptions.MaxSourceBytes).
	ErrSourceTooLarge = errors.New("transport: source exceeds the size limit")
)

// RemoteError is a failure the peer reported over the wire, tagged with the
// protocol phase ("hello", "commit", "respond") in which it occurred.
type RemoteError struct {
	Phase string
	Msg   string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: prover failed in %s phase: %s", e.Phase, e.Msg)
}

// ProtocolVersionError reports a wire version this build does not speak —
// a Hello or an ack carrying anything but ProtocolVersion. Max names the
// version the reporting side speaks.
type ProtocolVersionError struct {
	Version int // the version the peer asked for or selected
	Max     int // the version this side speaks
}

func (e *ProtocolVersionError) Error() string {
	return fmt.Sprintf("transport: unsupported wire protocol version %d (max supported %d)", e.Version, e.Max)
}

// Metric names recorded into the obs registry by the transport layer.
const (
	MetricSessions       = "transport.sessions"        // counter: server sessions opened
	MetricSessionErrors  = "transport.session.errors"  // counter: server sessions failed
	MetricServedInstance = "transport.instances"       // counter: instances served
	MetricServedBatches  = "transport.batches"         // counter: batches served (≥ sessions under keep-alive)
	MetricSpanSession    = "transport.session"         // histogram: server session wall
	MetricClientSessions = "transport.client.sessions" // counter: client sessions run
	MetricSpanClient     = "transport.client.session"  // histogram: client session wall

	MetricCacheHits      = "transport.cache.hits"      // counter: program-cache hits
	MetricCacheMisses    = "transport.cache.misses"    // counter: program-cache misses (compiles)
	MetricCacheEvictions = "transport.cache.evictions" // counter: program-cache LRU evictions
	MetricCacheEntries   = "transport.cache.entries"   // gauge: programs currently cached

	MetricAdmissionWait   = "transport.admission.wait"   // histogram: time a session waited for an admission slot
	MetricAdmissionActive = "transport.admission.active" // gauge: sessions currently holding an admission slot

	MetricConnsOpen     = "transport.conns.open"     // gauge: connections currently open in Serve
	MetricConnsRejected = "transport.conns.rejected" // counter: connections refused at the MaxConns cap
	MetricIdleClosed    = "transport.idle.closed"    // counter: idle keep-alive connections reaped

	MetricStoreHits        = "transport.store.hits"         // counter: programs served from the disk artifact store
	MetricStoreMisses      = "transport.store.misses"       // counter: store lookups that fell through to a compile
	MetricStoreBytesSaved  = "transport.store.bytes_saved"  // counter: source bytes never sent thanks to hash-first hellos
	MetricStoreWriteErrors = "transport.store.write_errors" // counter: failed bundle write-backs (service keeps running)

	MetricHelloSourceSkipped = "transport.hello.source_skipped" // counter: sessions opened without a source upload

	// MetricBackendSessions prefixes a per-backend session counter; the
	// full series name is the prefix plus the negotiated backend name,
	// e.g. "pcp.backend.sessions.sumcheck".
	MetricBackendSessions = "pcp.backend.sessions."

	// MetricSLOPrefix prefixes the service's rolling-window SLO gauges
	// (".requests", ".error_rate", ".p99_seconds" — see obs.ExposeSLO).
	MetricSLOPrefix = "transport.slo"
)

// Label keys for the labeled (per-tenant) views of the transport metrics.
// transport.sessions breaks out by {backend}; transport.batches and
// transport.instances by {backend, program_hash}. The label schema —
// allowed keys, cardinality bounds, and the program-hash truncation rule —
// is documented in docs/PROTOCOL.md §7.1.
const (
	LabelBackend     = "backend"
	LabelProgramHash = "program_hash"
)

// ProgramHashLen is how many hex characters of the program's SHA-256 a
// metric label carries: 48 bits — enough to tell tenants' programs apart,
// short enough to keep series names readable.
const ProgramHashLen = 12

// ProgramHash derives the metric-label identity of a program source: the
// first ProgramHashLen hex characters of its SHA-256. The full digest
// remains the cache key (cache.go); the label is deliberately truncated
// since metric labels need distinguishability, not collision resistance.
func ProgramHash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])[:ProgramHashLen]
}

// Hello opens a session: the verifier names the computation and ships the
// protocol parameters (everything except its secret randomness).
type Hello struct {
	// Source is the client's own copy of the program, never sent: the wire
	// copy carries SourceHash, and the source crosses the wire only in a
	// SourceMsg answering SourceNeeded. A hello arriving with a Source is
	// malformed.
	Source       string
	Field220     bool
	RhoLin, Rho  int
	NoCommitment bool

	// Backends is the ordered list of proof backends the client can verify,
	// most preferred first; the server answers (in HelloAck.Backend) with
	// the first offered name it supports. NewSession sends an empty offer
	// as [zaatar]; on the wire the offer must be non-empty.
	Backends []string

	// Version is the wire version the client speaks; it must be
	// ProtocolVersion (NewSession sends zero as ProtocolVersion).
	Version int

	// SourceHash is sha256(Source), stamped by NewSession: a server that
	// already holds the program — in its memory cache or its on-disk
	// artifact store — opens the session without the source ever crossing
	// the wire, and answers HelloAck.SourceNeeded otherwise.
	SourceHash []byte

	// Trace and TraceParent propagate the verifier's trace context so the
	// prover's spans land in the same trace (under the verifier's session
	// span). Zero values leave tracing off for the session.
	Trace       trace.TraceID
	TraceParent trace.SpanID
}

// DefaultMaxSourceBytes is the source-size bound applied when no explicit
// limit is configured (ServiceOptions.MaxSourceBytes).
const DefaultMaxSourceBytes = 1 << 20

// Sanity bounds on Hello fields; beyond these the message is malformed
// rather than merely expensive.
const (
	maxRepetitions  = 1 << 12
	maxBackends     = 8
	maxBackendBytes = 32
)

// wire is the copy of h that crosses the wire: the source's digest in
// place of the source, a zero Version as ProtocolVersion, and an empty
// offer as [zaatar]. A blank source gets no digest, so validation rejects
// it.
func (h Hello) wire() Hello {
	w := h
	w.Source, w.SourceHash = "", nil
	if w.Version == 0 {
		w.Version = ProtocolVersion
	}
	if len(w.Backends) == 0 {
		w.Backends = []string{pcp.BackendZaatar}
	}
	if strings.TrimSpace(h.Source) != "" {
		sum := sha256.Sum256([]byte(h.Source))
		w.SourceHash = sum[:]
	}
	return w
}

// validate checks a hello as it crosses the wire.
func (h Hello) validate() error {
	switch {
	case h.Version != ProtocolVersion:
		return &ProtocolVersionError{Version: h.Version, Max: ProtocolVersion}
	case len(h.SourceHash) != sha256.Size:
		return fmt.Errorf("%w: source hash is %d bytes, want %d", ErrMalformedHello, len(h.SourceHash), sha256.Size)
	case h.Source != "":
		return fmt.Errorf("%w: inline source (the source travels only in a SourceMsg)", ErrMalformedHello)
	case h.RhoLin < 0 || h.Rho < 0 || h.RhoLin > maxRepetitions || h.Rho > maxRepetitions:
		return fmt.Errorf("%w: PCP repetitions (ρ_lin=%d, ρ=%d) out of range [0, %d]",
			ErrMalformedHello, h.RhoLin, h.Rho, maxRepetitions)
	case len(h.Backends) == 0:
		return fmt.Errorf("%w: empty backend offer", ErrMalformedHello)
	case len(h.Backends) > maxBackends:
		return fmt.Errorf("%w: %d backend names offered (max %d)", ErrMalformedHello, len(h.Backends), maxBackends)
	}
	for _, name := range h.Backends {
		if name == "" || len(name) > maxBackendBytes {
			return fmt.Errorf("%w: bad backend name %q", ErrMalformedHello, name)
		}
	}
	return nil
}

// HelloAck reports compilation results (or an error) back to the verifier.
// A first ack with SourceNeeded set is an interim frame: the server knows
// neither the program nor a stored bundle for the hello's hash, the client
// answers with a SourceMsg, and the definitive ack follows.
type HelloAck struct {
	Err                   string
	NumInputs, NumOutputs int
	// SourceNeeded asks the client to upload the program source before the
	// session can open.
	SourceNeeded bool
	// Version is the server's wire version; the client refuses anything but
	// ProtocolVersion.
	Version int
	// Backend is the proof backend the server selected from the hello's
	// offer; the client refuses an empty pick.
	Backend string
}

// SourceMsg answers a SourceNeeded ack with the program source whose hash
// the hello claimed; the server verifies the digest before compiling.
type SourceMsg struct {
	Source string
}

// BatchMsg carries one batch: the per-instance inputs plus that batch's
// commit request — the key material is per-batch, so every batch ships a
// fresh Req, and the server refuses a batch without one. A final Close
// frame ends the session cleanly.
type BatchMsg struct {
	Req       *vc.CommitRequest
	Instances [][]*big.Int
	// Close marks a goodbye frame: no batch follows and the server ends the
	// session with success.
	Close bool
}

// CommitmentsMsg returns the per-instance commitments (with claimed
// outputs).
type CommitmentsMsg struct {
	Err   string
	Items []*vc.Commitment
}

// DecommitMsg reveals the query seed and consistency points.
type DecommitMsg struct {
	Req *vc.DecommitRequest
}

// ResponsesMsg returns the per-instance query answers. When the session is
// traced, Trace carries the prover's completed spans back to the verifier,
// which stitches them into its own timeline; the prover ships only the
// spans completed since the previous batch.
type ResponsesMsg struct {
	Err   string
	Items []*vc.Response
	Trace []trace.Record
}

// SessionResult is the verifier-side outcome of one batch.
type SessionResult struct {
	Accepted []bool
	Reasons  []string
	Outputs  [][]*big.Int
}

// AllAccepted reports whether every instance verified.
func (r *SessionResult) AllAccepted() bool {
	for _, ok := range r.Accepted {
		if !ok {
			return false
		}
	}
	return len(r.Accepted) > 0
}

func (h Hello) fieldOf() *field.Field {
	if h.Field220 {
		return field.F220()
	}
	return field.F128()
}

// config builds the vc configuration for the session's negotiated backend.
// The backend is resolved exactly once per session — by negotiateBackend on
// the server, from the acks on the client — and passed through here, so no
// later stage re-derives it from the hello.
func (h Hello) config(workers int, seed []byte, backend string) vc.Config {
	return vc.Config{
		Backend:      backend,
		Params:       pcp.Params{RhoLin: h.RhoLin, Rho: h.Rho},
		NoCommitment: h.NoCommitment,
		Workers:      workers,
		Seed:         seed,
	}
}

// negotiateBackend picks the first offered backend the server supports.
func negotiateBackend(offered, supported []string) (string, error) {
	for _, want := range offered {
		for _, have := range supported {
			if want == have {
				return want, nil
			}
		}
	}
	return "", fmt.Errorf("%w: offered %v, supported %v", ErrNoCommonBackend, offered, supported)
}

// ServerOptions configures a single-connection prover (see ServeConn). The
// long-lived, multi-tenant form is ServiceOptions.
type ServerOptions struct {
	// Workers is the prover's per-session parallelism over a batch.
	Workers int
	// MaxBatch bounds the number of instances a client may submit.
	MaxBatch int
	// IOTimeout, when positive, is the per-message read/write deadline on
	// the connection; a peer stalling longer than this fails the session.
	IOTimeout time.Duration
	// Obs receives the transport's counters and spans; nil uses
	// obs.Default().
	Obs *obs.Registry
}

// timedCodec arms a fresh connection deadline before every gob message, so
// one stalled peer cannot pin a session goroutine forever.
type timedCodec struct {
	conn    net.Conn
	timeout time.Duration
	enc     *gob.Encoder
	dec     *gob.Decoder
}

func newTimedCodec(conn net.Conn, timeout time.Duration) *timedCodec {
	return &timedCodec{conn: conn, timeout: timeout, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

func (c *timedCodec) arm() {
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

func (c *timedCodec) send(v any) error {
	c.arm()
	return c.enc.Encode(v)
}

func (c *timedCodec) recv(v any) error {
	c.arm()
	return c.dec.Decode(v)
}

// recvTimeout is recv with an explicit deadline replacing the per-message
// timeout; d ≤ 0 falls back to the default arming.
func (c *timedCodec) recvTimeout(v any, d time.Duration) error {
	if d <= 0 {
		return c.recv(v)
	}
	_ = c.conn.SetDeadline(time.Now().Add(d))
	return c.dec.Decode(v)
}

// watch closes conn when ctx is cancelled, unblocking in-flight gob I/O;
// the returned stop func releases the watcher.
func watch(ctx context.Context, conn net.Conn) (stop func() bool) {
	return context.AfterFunc(ctx, func() { _ = conn.Close() })
}

// ctxErr maps an I/O error on a cancelled session to the context's error,
// so callers see ctx.Err() rather than "use of closed network connection".
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// ServeConn handles one verifier connection on the prover side with a
// throwaway single-session service: compile the received program, then
// serve its batches until the session ends, the context is cancelled, or
// the peer stalls past opts.IOTimeout. Long-lived deployments should hold
// one Service and call its ServeConn instead, which is what makes the
// program cache and admission control span connections.
func ServeConn(ctx context.Context, conn net.Conn, opts ServerOptions) error {
	svc := NewService(ServiceOptions{
		Workers:     opts.Workers,
		MaxSessions: 1,
		MaxBatch:    opts.MaxBatch,
		IOTimeout:   opts.IOTimeout,
		CacheSize:   1,
		Obs:         opts.Obs,
	})
	return svc.ServeConn(ctx, conn)
}
