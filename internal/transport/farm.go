package transport

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/big"

	"zaatar/internal/obs/trace"
	"zaatar/internal/vc"
)

// FarmError attributes a session failure to one prover connection: the
// worker behind leg Leg (named by ClientOptions.Addrs, falling back to the
// connection's remote address) failed with Err. Sessions over more than one
// prover wrap every leg-level failure — I/O errors, remote phase errors,
// malformed replies — in a FarmError, so a coordinator can tell worker
// death (errors.As with *FarmError) apart from verification failure (which
// is never an error: it surfaces as SessionResult.Accepted[i] == false).
// Unwrap exposes the underlying cause, so errors.As still finds a
// *RemoteError reported by the worker itself.
type FarmError struct {
	Addr string // worker address or name
	Leg  int    // index of the failed connection within the session
	Err  error
}

func (e *FarmError) Error() string {
	return fmt.Sprintf("transport: worker %s (leg %d): %v", e.Addr, e.Leg, e.Err)
}

func (e *FarmError) Unwrap() error { return e.Err }

// legError wraps a leg-level failure in a *FarmError on multi-prover
// sessions; single-prover sessions keep their errors undressed (there is
// only one worker the failure could belong to).
func (s *Session) legError(i int, err error) error {
	if !s.multi {
		return err
	}
	return s.attribute(i, err)
}

// attribute wraps err in a *FarmError naming leg i's worker.
func (s *Session) attribute(i int, err error) error {
	var fe *FarmError
	if err == nil || errors.As(err, &fe) {
		return err
	}
	return &FarmError{Addr: s.legs[i].addr, Leg: i, Err: err}
}

// NumLegs reports how many prover connections the session spans.
func (s *Session) NumLegs() int { return len(s.legs) }

// LegAddr names the worker behind leg i (ClientOptions.Addrs when given,
// otherwise the connection's remote address).
func (s *Session) LegAddr(i int) string { return s.legs[i].addr }

// Options returns the options the session was opened with; a farm
// coordinator takes its seeds, verification parallelism, registry and
// logger from them.
func (s *Session) Options() ClientOptions { return s.opts }

// Verifier exposes the session's verifier so a coordinator can drive
// rounds itself (vc.Drive over Leg) or Fork per-shard verifiers off its
// precomputation. The verifier is not safe for concurrent use;
// coordinators fork one per in-flight shard.
func (s *Session) Verifier() *vc.Verifier { return s.verifier }

// CloseLeg tears down one prover connection without ending the session —
// the farm's way of retiring a dead worker while the surviving legs keep
// serving. Operations on a closed leg fail with a *FarmError wrapping the
// connection error.
func (s *Session) CloseLeg(i int) error {
	return s.legs[i].conn.Close()
}

// Leg returns leg i as a vc.Endpoint for vc.Drive: each round is one wire
// batch on that connection, with its own commit request — farm shards are
// independent batches, each with its own key and seed. Every failure comes
// back as a *FarmError naming the worker, even on a one-worker farm. One
// round at a time per leg; distinct legs may run rounds concurrently.
func (s *Session) Leg(i int) vc.Endpoint {
	return &legEndpoint{s: s, i: i, attribute: true}
}

// legEndpoint runs rounds over one prover connection: Commit is the
// BatchMsg → CommitmentsMsg exchange, Respond the DecommitMsg →
// ResponsesMsg exchange, which also stitches the prover's spans into the
// session's trace.
type legEndpoint struct {
	s         *Session
	i         int
	attribute bool // wrap every failure in a *FarmError
	n         int  // instances in the round in flight
}

func (e *legEndpoint) Commit(ctx context.Context, req *vc.CommitRequest, instances [][]*big.Int) ([]*vc.Commitment, error) {
	var cms CommitmentsMsg
	err := e.exchange(ctx, "wire.commit_exchange", BatchMsg{Req: req, Instances: instances}, &cms)
	if err = cmp.Or(err, replyErr("commit", cms.Err, len(cms.Items), len(instances))); err != nil {
		return nil, e.fail(ctx, err)
	}
	e.n = len(instances)
	return cms.Items, nil
}

func (e *legEndpoint) Respond(ctx context.Context, dreq *vc.DecommitRequest, emit func(int, *vc.Response) error) error {
	var resp ResponsesMsg
	err := e.exchange(ctx, "wire.respond_exchange", DecommitMsg{Req: dreq}, &resp)
	if err = cmp.Or(err, replyErr("respond", resp.Err, len(resp.Items), e.n)); err != nil {
		return e.fail(ctx, err)
	}
	// Stitch this prover's spans into our timeline (records from any other
	// trace are dropped by Import).
	e.s.tc.Import(resp.Trace)
	for i, r := range resp.Items {
		if err := emit(i, r); err != nil {
			return err
		}
	}
	return nil
}

// exchange sends msg on the leg and receives its reply, under a span
// named after the exchange.
func (e *legEndpoint) exchange(ctx context.Context, span string, msg, reply any) error {
	leg := e.s.legs[e.i]
	defer watch(ctx, leg.conn)()
	defer trace.Start(ctx, span).End()
	if err := leg.cc.send(msg); err != nil {
		return err
	}
	return leg.cc.recv(reply)
}

func (e *legEndpoint) fail(ctx context.Context, err error) error {
	if err = ctxErr(ctx, err); e.attribute {
		return e.s.attribute(e.i, err)
	}
	return e.s.legError(e.i, err)
}

// replyErr checks a prover's reply for the given phase: a reported error,
// or an item count other than the instances in the round.
func replyErr(phase, msg string, got, want int) error {
	if msg != "" {
		return &RemoteError{Phase: phase, Msg: msg}
	}
	if got != want {
		return fmt.Errorf("transport: %s reply carries %d items for %d instances", phase, got, want)
	}
	return nil
}
