package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"slices"
	"sync"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/vc"
)

// ClientOptions configures the verifier side of a session.
type ClientOptions struct {
	// Seed fixes the verifier's randomness; empty draws fresh randomness.
	// Every batch after the first reseeds with a counter appended to this
	// value (or fresh randomness when empty), so a fixed seed still yields
	// deterministic — but per-batch distinct — queries.
	Seed []byte
	// Group overrides the ElGamal group (tests with non-production fields).
	Group *elgamal.Group
	// Workers is the verifier's parallelism over per-instance checks;
	// 0 or 1 verifies serially.
	Workers int
	// IOTimeout, when positive, is the per-message read/write deadline on
	// every prover connection.
	IOTimeout time.Duration
	// Program, when non-nil, is the already-compiled program for
	// hello.Source over hello's field, letting a caller that compiled the
	// source to pick its backend offer (see zaatar.WithBackend's auto
	// mode) skip the second compilation. It must match the hello.
	Program *compiler.Program
	// Addrs, when non-empty, names the prover behind each connection
	// (index-aligned with the conns given to NewSession). The names label
	// leg failures (*FarmError.Addr) so a caller can tell which worker
	// died; legs beyond the list fall back to the connection's remote
	// address. zaatar.Dial and zaatar.DialFarm fill this in.
	Addrs []string
	// Obs receives the client's counters and spans; nil uses
	// obs.Default().
	Obs *obs.Registry
	// Logger receives structured records for the session lifecycle and each
	// batch, carrying backend/program_hash attributes plus trace correlation
	// when the caller's context carries a trace. Nil disables logging.
	Logger *slog.Logger
}

func (o ClientOptions) registry() *obs.Registry {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

// sessionLeg is the verifier's state for one prover connection.
type sessionLeg struct {
	conn net.Conn
	cc   *timedCodec
	addr string // worker name for failure attribution
}

// Session is the verifier side of a prover session: over one connection,
// or over several when a farm coordinator drives each one through Leg.
// NewSession opens the session and compiles the verifier state once; each
// RunBatch then proves and verifies one batch. The connection, the client-
// and server-side compilations, and the prover's QAP precomputation all
// carry over between batches — the paper's batching amortization (§5.2)
// extended across batches. The query seed and the commitment key are
// per-batch: each decommit reveals a consistency point over the key's
// secret vector r, so the key cannot soundly outlive its batch. A session
// is not safe for concurrent use; RunBatch calls are serialized
// internally.
type Session struct {
	mu       sync.Mutex
	opts     ClientOptions
	reg      *obs.Registry
	prog     *compiler.Program
	verifier *vc.Verifier
	legs     []*sessionLeg
	backend  string // negotiated proof backend (identical across legs)
	tc       *trace.Ctx
	sessTr   *trace.Span
	obsSpan  obs.Span
	log      *slog.Logger
	batches  int
	closed   bool
	multi    bool // more than one prover connection: leg errors carry worker attribution
}

// NewSession opens a verifier session over the given prover connections:
// it sends each prover the hash-only wire copy of the hello (hello.Source
// stays here until a prover asks for it; an empty hello.Backends offers
// [zaatar]), collects the acks, and builds the verifier's query and
// commitment-key state. The context bounds only the handshake; the session
// itself lives until Close.
func NewSession(ctx context.Context, conns []net.Conn, hello Hello, opts ClientOptions) (s *Session, err error) {
	if len(conns) == 0 {
		return nil, errors.New("transport: no prover connections")
	}
	wire := hello.wire()
	if err := wire.validate(); err != nil {
		return nil, err
	}
	reg := opts.registry()
	reg.Counter(MetricClientSessions).Inc()

	// Root the session's trace (if the caller attached one) and stamp its
	// identifiers into the hello so the provers' spans join this trace.
	sessTr, tctx := trace.Child(ctx, "transport.session")
	sessTr.WithArg("provers", int64(len(conns)))
	tc := trace.FromContext(tctx)
	wire.Trace = tc.TraceID()
	wire.TraceParent = tc.SpanID()

	sess := &Session{
		opts:    opts,
		reg:     reg,
		multi:   len(conns) > 1,
		tc:      tc,
		sessTr:  sessTr,
		obsSpan: reg.StartSpan(MetricSpanClient),
		log:     obs.OrNop(opts.Logger).With(LabelProgramHash, ProgramHash(hello.Source)),
	}
	s = sess
	defer func() {
		if err != nil {
			err = ctxErr(ctx, err)
			sess.finish()
			s = nil
		}
	}()
	for _, conn := range conns {
		defer watch(ctx, conn)()
	}

	if opts.Program != nil {
		s.prog = opts.Program
	} else {
		compileTr := trace.Start(tctx, "verifier.compile")
		s.prog, err = compiler.Compile(hello.fieldOf(), hello.Source)
		compileTr.End()
		if err != nil {
			return nil, err
		}
	}

	helloTr := trace.Start(tctx, "wire.hello_exchange")
	for i, conn := range conns {
		addr := ""
		if i < len(opts.Addrs) {
			addr = opts.Addrs[i]
		} else if ra := conn.RemoteAddr(); ra != nil {
			addr = ra.String()
		}
		leg := &sessionLeg{conn: conn, cc: newTimedCodec(conn, opts.IOTimeout), addr: addr}
		if err := leg.cc.send(wire); err != nil {
			helloTr.End()
			s.legs = append(s.legs, leg)
			return nil, s.legError(len(s.legs)-1, err)
		}
		s.legs = append(s.legs, leg)
	}
	// Per-leg ack processing runs concurrently: a prover that misses the
	// program asks its leg for an upload, and when several legs reach one
	// server the singleflight build winner — the only leg asked to upload —
	// may be any of them. Serial processing would deadlock waiting on the
	// wrong leg.
	acks := make([]HelloAck, len(s.legs))
	legErrs := make([]error, len(s.legs))
	var hsWG sync.WaitGroup
	for i, leg := range s.legs {
		hsWG.Add(1)
		go func() {
			defer hsWG.Done()
			acks[i], legErrs[i] = leg.handshake(hello.Source)
		}()
	}
	hsWG.Wait()
	for i, err := range legErrs {
		if err != nil {
			helloTr.End()
			return nil, s.legError(i, err)
		}
	}
	for _, ack := range acks {
		if ack.NumInputs != s.prog.NumInputs() || ack.NumOutputs != s.prog.NumOutputs() {
			helloTr.End()
			return nil, errors.New("transport: prover disagrees on the io shape")
		}
		picked := ack.Backend
		if !slices.Contains(wire.Backends, picked) { // an empty pick included
			helloTr.End()
			return nil, fmt.Errorf("%w: server picked %q, offered %v", ErrNoCommonBackend, picked, wire.Backends)
		}
		switch s.backend {
		case "":
			s.backend = picked
		case picked:
		default:
			helloTr.End()
			return nil, fmt.Errorf("%w: provers disagree (%q vs %q); a distributed batch needs one backend",
				ErrNoCommonBackend, s.backend, picked)
		}
	}
	helloTr.End()

	// The verifier is built only now: its query state (and whether it
	// generates commitment keys at all) depends on the negotiated backend.
	cfg := hello.config(0, opts.Seed, s.backend)
	cfg.Group = opts.Group
	cfg.Obs = opts.Obs
	setupTr, setupCtx := trace.Child(tctx, "vc.setup")
	s.verifier, err = vc.NewVerifierCtx(setupCtx, s.prog, cfg)
	setupTr.End()
	if err != nil {
		return nil, err
	}
	reg.CounterVec(MetricClientSessions, LabelBackend).With(s.backend).Inc()
	s.log = s.log.With(LabelBackend, s.backend)
	s.log.InfoContext(tctx, "session negotiated", "version", ProtocolVersion, "provers", int64(len(conns)))
	return s, nil
}

// handshake completes one prover's hello exchange after the hello went
// out: take the ack, answer a SourceNeeded with the program source, and
// check the definitive ack's version.
func (leg *sessionLeg) handshake(source string) (HelloAck, error) {
	var ack HelloAck
	if err := leg.cc.recv(&ack); err != nil {
		return ack, err
	}
	if ack.SourceNeeded {
		// This prover holds the program in neither its memory cache nor its
		// artifact store: upload the source the hello hashed.
		if err := leg.cc.send(SourceMsg{Source: source}); err != nil {
			return ack, err
		}
		ack = HelloAck{}
		if err := leg.cc.recv(&ack); err != nil {
			return ack, err
		}
	}
	switch {
	case ack.Err != "":
		return ack, &RemoteError{Phase: "hello", Msg: ack.Err}
	case ack.Version != ProtocolVersion:
		return ack, &ProtocolVersionError{Version: ack.Version, Max: ProtocolVersion}
	}
	return ack, nil
}

// WireVersion reports the wire protocol version the session speaks —
// always ProtocolVersion, since NewSession refuses any other.
func (s *Session) WireVersion() int { return ProtocolVersion }

// Backend reports the proof backend negotiated with the provers (identical
// across connections; NewSession fails otherwise).
func (s *Session) Backend() string { return s.backend }

// Program returns the compiled program (for io shape inspection).
func (s *Session) Program() *compiler.Program { return s.prog }

// SetupDuration reports the verifier's one-time session setup cost (query
// construction plus commitment-key generation) — the amortized numerator of
// the batching argument.
func (s *Session) SetupDuration() time.Duration { return s.verifier.SetupDuration() }

// RunBatch proves and verifies one batch of instances on the session's
// prover connection. Every batch ships its own commit request: later
// batches reuse the connection and the negotiated (server-cached) program,
// but redraw the query seed and the commitment key — reusing the key
// across decommits would leak the secret vector r. A session over several
// provers runs its batches through a farm (internal/farm), which drives
// each leg via Leg.
func (s *Session) RunBatch(ctx context.Context, batch [][]*big.Int) (res *SessionResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if len(s.legs) > 1 {
		return nil, errors.New("transport: a multi-prover session runs batches through a farm")
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: 0 instances", ErrBatchTooLarge)
	}
	defer func() { err = ctxErr(ctx, err) }()
	defer watch(ctx, s.legs[0].conn)()
	ctx = trace.NewContext(ctx, s.tc)
	batchTr, ctx := trace.Child(ctx, "transport.batch")
	batchTr.WithArg("batch", int64(s.batches)).WithArg("instances", int64(len(batch)))
	defer batchTr.End()

	// A failed batch counts too: its seed may already be out.
	b := s.batches
	s.batches++
	if b > 0 {
		// Fresh queries and a fresh commitment key for a fresh batch: the
		// previous batch's decommit revealed t = r + Σ αᵢqᵢ, so carrying r
		// over would let the prover solve for it across batches (see
		// Verifier.Reseed).
		reseedTr, reseedCtx := trace.Child(ctx, "vc.reseed")
		err := s.verifier.Reseed(reseedCtx, vc.DeriveSeed(s.opts.Seed, b))
		reseedTr.End()
		if err != nil {
			return nil, err
		}
	}
	r, err := vc.Drive(ctx, s.verifier, &legEndpoint{s: s, i: 0}, batch, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	accepted := 0
	for _, ok := range r.Accepted {
		if ok {
			accepted++
		}
	}
	s.log.InfoContext(ctx, "batch verified", "batch", b, "instances", len(batch), "accepted", accepted)
	return &SessionResult{Accepted: r.Accepted, Reasons: r.Reasons, Outputs: r.Outputs}, nil
}

// finish ends the session's spans exactly once; callers hold no lock.
func (s *Session) finish() {
	s.sessTr.End()
	s.obsSpan.End()
}

// Close ends the session: every prover gets a goodbye frame so it logs a
// clean end rather than a hangup, and every connection is closed. Close is
// idempotent and safe after errors.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, leg := range s.legs {
		_ = leg.cc.send(BatchMsg{Close: true})
		_ = leg.conn.Close()
	}
	s.finish()
	return nil
}
