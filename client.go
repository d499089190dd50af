package zaatar

import (
	"context"
	"fmt"
	"math/big"
	"net"
	"strings"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/field"
	"zaatar/internal/transport"
)

// SessionResult is the verifier-side outcome of one batch run against a
// remote prover: per-instance acceptance, rejection reasons, and claimed
// outputs.
type SessionResult = transport.SessionResult

// ProtocolVersionError reports a wire protocol version this build does not
// speak; errors.As with *ProtocolVersionError distinguishes it from other
// dial failures.
type ProtocolVersionError = transport.ProtocolVersionError

// sessionRunner is what a Client drives: a single kept-alive session
// (*transport.Session) or a farm coordinator (*farm.Farm) scheduling shards
// over one.
type sessionRunner interface {
	RunBatch(ctx context.Context, batch [][]*big.Int) (*transport.SessionResult, error)
	Program() *compiler.Program
	WireVersion() int
	Backend() string
	SetupDuration() time.Duration
	Close() error
}

// Client is the verifier side of a kept-alive session with one or more
// prover servers. Dial opens the session and performs the one-time session
// setup (compilation plus the first batch's key generation); each RunBatch
// then proves and verifies one batch. All batches share the connection,
// the negotiated program, and the server's cached compilation, so batches
// after the first skip compilation and negotiation entirely; the
// commitment key is redrawn per batch (reusing it across decommits would
// leak its secret vector). A Client is safe for sequential use; RunBatch
// calls are serialized. DialFarm returns the same Client over a sharding
// coordinator instead of a plain session.
type Client struct {
	sess sessionRunner
}

// dialSession dials every addr and opens one session for src, with one
// leg per address — the shared machinery behind Dial and DialFarm.
func dialSession(ctx context.Context, addrs []string, src string, o options) (*transport.Session, error) {
	// Build the backend offer, most preferred first. BackendAuto needs the
	// compiled program for the cost model, so it compiles here and hands
	// the program to the session (which would otherwise compile the same
	// source again).
	var prog *Program
	var offer []string
	switch o.cfg.Backend {
	case "":
		offer = []string{BackendZaatar}
	case BackendAuto:
		var err error
		prog, err = compiler.Compile(o.field, src)
		if err != nil {
			return nil, err
		}
		offer = []string{RecommendBackend(prog)}
		if offer[0] != BackendZaatar {
			offer = append(offer, BackendZaatar)
		}
	default:
		offer = []string{o.cfg.Backend}
	}

	hello := transport.Hello{
		Source:       src,
		Field220:     o.field == field.F220(),
		Backends:     offer,
		RhoLin:       o.cfg.Params.RhoLin,
		Rho:          o.cfg.Params.Rho,
		NoCommitment: o.cfg.NoCommitment,
	}
	copts := transport.ClientOptions{
		Seed:      o.cfg.Seed,
		Group:     o.cfg.Group,
		Workers:   o.cfg.Workers,
		IOTimeout: o.ioTo,
		Obs:       o.cfg.Obs,
		Program:   prog,
		Logger:    o.logger,
	}
	copts.Addrs = addrs
	var dialer net.Dialer
	var conns []net.Conn
	for _, a := range addrs {
		conn, err := dialer.DialContext(ctx, "tcp", a)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, fmt.Errorf("zaatar: dialing %s: %w", a, err)
		}
		conns = append(conns, conn)
	}
	sess, err := transport.NewSession(ctx, conns, hello, copts)
	if err != nil {
		for _, c := range conns {
			_ = c.Close()
		}
		return nil, err
	}
	return sess, nil
}

// Dial connects to a prover server and opens a session for src. The
// protocol parameters come from opts; WithField220 must match how the
// embedded source expects to be compiled, and server and client compile
// the same source independently. addr may also be a comma-separated list
// of servers: the Client is then a farm (see DialFarm) with FarmStatic
// routing and the default shard size, so every batch is split across the
// provers — the paper's distributed prover, §5.1 — and a prover that dies
// mid-batch has its share requeued onto the others.
func Dial(ctx context.Context, addr, src string, opts ...RunOption) (*Client, error) {
	o := buildRunOptions(opts)
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("zaatar: no prover address in %q", addr)
	}
	if len(addrs) > 1 {
		o.farmRouting, o.shardSize = FarmStatic, 0
		return dialFarm(ctx, addrs, src, o)
	}
	sess, err := dialSession(ctx, addrs, src, o)
	if err != nil {
		return nil, err
	}
	return &Client{sess: sess}, nil
}

// RunBatch proves and verifies one batch of instances against the session's
// provers. Every batch carries its own commit request and query seed; the
// connection and the negotiated program carry over.
func (c *Client) RunBatch(ctx context.Context, batch [][]*big.Int) (*SessionResult, error) {
	return c.sess.RunBatch(ctx, batch)
}

// Program returns the client-side compilation of the session's source (for
// io shape inspection).
func (c *Client) Program() *Program { return c.sess.Program() }

// WireVersion reports the session's wire protocol version: 3, the one
// dialect this build speaks (hash-first hellos on keep-alive sessions);
// Dial refuses a server speaking any other.
func (c *Client) WireVersion() int { return c.sess.WireVersion() }

// Backend reports the proof backend the session negotiated (every prover
// leg agrees on it — a distributed batch runs one encoding).
func (c *Client) Backend() string { return c.sess.Backend() }

// SetupDuration reports the verifier setup cost paid at Dial (query
// construction plus the first batch's commitment-key generation) — the
// amortized cost that batching spreads over a batch's instances.
func (c *Client) SetupDuration() time.Duration { return c.sess.SetupDuration() }

// Close ends the session (every prover gets a clean goodbye frame) and
// closes every connection. Close is idempotent.
func (c *Client) Close() error { return c.sess.Close() }
