package vc

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"zaatar/internal/commit"
	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs/trace"
	"zaatar/internal/par"
	"zaatar/internal/pcp"
)

// ProverTimes decomposes one instance's prover cost, mirroring the columns
// of Figure 5.
type ProverTimes struct {
	Solve      time.Duration // execute Ψ and solve the constraints
	ConstructU time.Duration // build the proof vector (H(t) for Zaatar, z⊗z for Ginger)
	Crypto     time.Duration // homomorphic commitment evaluation
	Answer     time.Duration // PCP + consistency query responses
}

// E2E is the total prover time for the instance.
func (t ProverTimes) E2E() time.Duration {
	return t.Solve + t.ConstructU + t.Crypto + t.Answer
}

// Prover holds a prover's batch state for one computation.
type Prover struct {
	Prog *compiler.Program
	Cfg  Config

	bk  pcp.Backend
	pre pcp.Precomputed
	req *CommitRequest

	// prepR1/prepR2 cache the Montgomery preparation of the batch's Enc(r)
	// vectors (commit.Prepare): built once per HandleCommitRequest, reused
	// by every instance's Commit. When the request is a masked share of a
	// split commit request (a farm coordinator splitting one instance's
	// commitment across cooperating provers), only the live positions are
	// prepared — liveR1/liveR2 record which — so the per-instance multiexp
	// runs over this prover's slice alone.
	prepR1, prepR2 *elgamal.PreparedVector
	liveR1, liveR2 []int // nil = dense request
	lenR1, lenR2   int

	// kernelWorkers shards the homomorphic inner product inside each
	// Commit call. It defaults to 1 because batch drivers already run one
	// Commit per instance concurrently; SetKernelWorkers raises it when
	// instance-level parallelism can't fill the machine (small batches).
	kernelWorkers int

	// query regeneration state after decommit
	queries pcp.Queries
	t1, t2  []field.Element
}

// SetKernelWorkers sets the number of goroutines used inside a single
// Commit's group-arithmetic kernel. Values below 1 are treated as 1.
func (p *Prover) SetKernelWorkers(n int) {
	if n < 1 {
		n = 1
	}
	p.kernelWorkers = n
}

// InstanceState carries a single instance's proof between the commit and
// respond phases.
type InstanceState struct {
	U1, U2 []field.Element // the two proof vectors
	Times  ProverTimes
}

// Precomputation holds the backend-dependent prover-side state that
// depends only on the compiled program, not on a batch: for Zaatar the QAP
// encoding (divisor polynomial, Newton inverse series, NTT subproduct
// tree), for sum-check the layered circuit. It is immutable and safe to
// share between concurrent provers, so a long-lived service can build it
// once per program and hand it to every session (transport.Service does
// exactly that). Keyed by backend name so a cache hit for one backend never
// leaks into a session negotiating another.
type Precomputation struct {
	Backend string

	bk  pcp.Backend
	pre pcp.Precomputed
}

// PreprocessBackend builds the prover-side precomputation for a program
// under the named backend.
func PreprocessBackend(prog *compiler.Program, backend string) (*Precomputation, error) {
	bk, err := pcp.Lookup(backend)
	if err != nil {
		return nil, err
	}
	pre, err := bk.Precompute(prog)
	if err != nil {
		return nil, err
	}
	return &Precomputation{Backend: bk.Name(), bk: bk, pre: pre}, nil
}

// NewProver prepares the prover for a computation.
func NewProver(prog *compiler.Program, cfg Config) (*Prover, error) {
	return NewProverPre(prog, cfg, nil)
}

// NewProverPre is NewProver reusing a cached Precomputation; pre may be nil
// (or built for a different backend), in which case the precomputation is
// performed here.
func NewProverPre(prog *compiler.Program, cfg Config, pre *Precomputation) (*Prover, error) {
	if pre == nil || pre.Backend != cfg.BackendName() {
		var err error
		if pre, err = PreprocessBackend(prog, cfg.BackendName()); err != nil {
			return nil, err
		}
	}
	return &Prover{Prog: prog, Cfg: cfg, bk: pre.bk, pre: pre.pre}, nil
}

// HandleCommitRequest stores the batch's encrypted commitment vectors and
// prepares them for the per-instance commitments. The request may come from
// an untrusted verifier over the wire, so the group parameters and every
// ciphertext component are checked before they reach the Montgomery kernels
// (whose preconditions are enforced by panic); a malformed request is
// rejected with an error and leaves the prover with no open batch.
func (p *Prover) HandleCommitRequest(req *CommitRequest) error {
	p.req, p.prepR1, p.prepR2 = nil, nil, nil
	p.liveR1, p.liveR2, p.lenR1, p.lenR2 = nil, nil, 0, 0
	if req != nil && (len(req.EncR1) > 0 || len(req.EncR2) > 0) {
		if req.PK == nil {
			return errors.New("vc: commit request carries ciphertexts but no public key")
		}
		group := req.PK.Group
		if err := group.Validate(); err != nil {
			return fmt.Errorf("vc: commit request: %w", err)
		}
		if group.Q.Cmp(p.Prog.Field.Modulus()) != 0 {
			return errors.New("vc: commit request group order does not match the program field")
		}
		if err := group.CheckCiphertexts(req.EncR1); err != nil {
			return fmt.Errorf("vc: commit request Enc(r1): %w", err)
		}
		if err := group.CheckCiphertexts(req.EncR2); err != nil {
			return fmt.Errorf("vc: commit request Enc(r2): %w", err)
		}
		// A masked share (farm-split commit request) carries neutral (1,1)
		// ciphertexts outside this prover's slice; those positions
		// contribute the identity to the commitment whatever u holds, so
		// they are dropped before preparation and the multiexp runs over
		// the live slice alone.
		p.liveR1, p.liveR2 = liveIndices(req.EncR1), liveIndices(req.EncR2)
		p.lenR1, p.lenR2 = len(req.EncR1), len(req.EncR2)
		p.prepR1 = commit.Prepare(group, gatherCiphertexts(req.EncR1, p.liveR1))
		p.prepR2 = commit.Prepare(group, gatherCiphertexts(req.EncR2, p.liveR2))
	}
	p.req = req
	return nil
}

// gatherWeights compacts the proof vector u down to a masked request's live
// positions (nil live = dense, u unchanged). The request's full oracle
// length must match |u| — the same invariant the unmasked multiexp enforces.
func gatherWeights(u []field.Element, live []int, reqLen int) ([]field.Element, error) {
	if live == nil {
		return u, nil
	}
	if len(u) != reqLen {
		return nil, errors.New("vc: masked commit request length does not match the proof vector")
	}
	out := make([]field.Element, len(live))
	for j, i := range live {
		out[j] = u[i]
	}
	return out, nil
}

// Commit executes the computation on one instance's inputs and commits to
// the resulting proof. This performs the first three phases of Figure 5:
// solving the constraints, constructing the proof vector, and the
// cryptographic commitment. A cancelled ctx aborts before the work starts;
// the per-instance steps themselves are not interruptible.
func (p *Prover) Commit(ctx context.Context, inputs []*big.Int) (*Commitment, *InstanceState, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if p.req == nil {
		return nil, nil, errPhase
	}
	st := &InstanceState{}
	cm := &Commitment{}
	f := p.Prog.Field

	start := time.Now()
	solveTr := trace.Start(ctx, "prover.solve")
	var w []field.Element
	var err error
	cm.Output, w, err = p.bk.Solve(p.pre, p.Prog, inputs)
	solveTr.End()
	if err != nil {
		return nil, nil, err
	}
	st.Times.Solve = time.Since(start)

	// Construct the proof vector. For Zaatar the dominant work is the NTT
	// polynomial division computing H(t); for Ginger it is the z⊗z tensor;
	// for sum-check the witness is the layered evaluation itself and the
	// real proof is built at answer time (it depends on the batch salt).
	start = time.Now()
	buildTr := trace.Start(ctx, p.bk.ConstructKernel())
	proof, err := p.bk.BuildProof(p.pre, w)
	if err != nil {
		buildTr.End()
		return nil, nil, err
	}
	st.U1, st.U2 = proof.U1, proof.U2
	buildTr.WithArg("u1", int64(len(st.U1))).WithArg("u2", int64(len(st.U2))).End()
	st.Times.ConstructU = time.Since(start)

	start = time.Now()
	if len(p.req.EncR1) > 0 {
		cryptoTr, cctx := trace.Child(ctx, "prover.crypto")
		defer cryptoTr.End()
		group := p.req.PK.Group
		kw := p.kernelWorkers
		if kw < 1 {
			kw = 1
		}
		u1, err := gatherWeights(st.U1, p.liveR1, p.lenR1)
		if err != nil {
			return nil, nil, err
		}
		u2, err := gatherWeights(st.U2, p.liveR2, p.lenR2)
		if err != nil {
			return nil, nil, err
		}
		k1 := trace.Start(cctx, "kernel.multiexp").WithArg("n", int64(len(u1)))
		cm.C1, err = commit.CommitPrepared(group, f, p.prepR1, u1, kw)
		k1.End()
		if err != nil {
			return nil, nil, err
		}
		k2 := trace.Start(cctx, "kernel.multiexp").WithArg("n", int64(len(u2)))
		cm.C2, err = commit.CommitPrepared(group, f, p.prepR2, u2, kw)
		k2.End()
		if err != nil {
			return nil, nil, err
		}
		cryptoTr.End()
	}
	st.Times.Crypto = time.Since(start)
	return cm, st, nil
}

// HandleDecommit regenerates the batch query state from the revealed seed.
func (p *Prover) HandleDecommit(req *DecommitRequest) error {
	q, err := queriesFromSeed(p.bk, p.pre, p.Cfg.params(), req.Seed)
	if err != nil {
		return err
	}
	p.queries = q
	p.t1, p.t2 = req.T1, req.T2
	return nil
}

// Respond answers every query (and the consistency points) for one
// committed instance — the "answer queries" phase of Figure 5. A cancelled
// ctx aborts before the work starts.
func (p *Prover) Respond(ctx context.Context, st *InstanceState) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.queries == nil {
		return nil, errPhase
	}
	f := p.Prog.Field
	start := time.Now()
	r1, r2, err := p.queries.Answer(&pcp.Proof{U1: st.U1, U2: st.U2})
	if err != nil {
		return nil, err
	}
	resp := &Response{R1: r1, R2: r2}
	if p.t1 != nil {
		if len(p.t1) != len(st.U1) || len(p.t2) != len(st.U2) {
			return nil, errors.New("vc: consistency point length mismatch")
		}
		resp.T1 = f.InnerProduct(p.t1, st.U1)
		resp.T2 = f.InnerProduct(p.t2, st.U2)
	}
	st.Times.Answer = time.Since(start)
	return resp, nil
}

// LocalProver is the in-process Endpoint: a Prover whose commit and
// respond loops spread a round's instances over Workers goroutines, each
// instance under its own prover.commit / prover.respond span inside the
// round's vc.commit / vc.respond span. RunBatch drives it directly, and
// transport.Service runs the same loops for every wire batch it serves.
type LocalProver struct {
	Prover  *Prover
	Workers int

	states []*InstanceState
}

// Commit installs req — every round brings its own — and commits every
// instance.
func (e *LocalProver) Commit(ctx context.Context, req *CommitRequest, instances [][]*big.Int) ([]*Commitment, error) {
	workers := max(e.Workers, 1)
	commitTr, commitCtx := trace.Child(ctx, "vc.commit")
	defer commitTr.End()
	if err := e.Prover.HandleCommitRequest(req); err != nil {
		return nil, err
	}
	// Small batches can't fill the pool with instance-level parallelism
	// alone; give each Commit's inner kernel the leftover workers.
	e.Prover.SetKernelWorkers(workers / max(len(instances), 1))
	cms := make([]*Commitment, len(instances))
	e.states = make([]*InstanceState, len(instances))
	err := par.ForEach(ctx, len(instances), workers, func(i int) error {
		isp, ictx := trace.Child(commitCtx, "prover.commit")
		isp.WithArg("instance", int64(i))
		defer isp.End()
		cm, st, err := e.Prover.Commit(ictx, instances[i])
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		if testHookAfterCommit != nil {
			testHookAfterCommit(i, cm)
		}
		cms[i], e.states[i] = cm, st
		return nil
	})
	return cms, err
}

// Respond regenerates the queries from dreq and answers every committed
// instance, emitting each response as soon as it is ready.
func (e *LocalProver) Respond(ctx context.Context, dreq *DecommitRequest, emit func(int, *Response) error) error {
	if dreq == nil || e.states == nil {
		return errPhase
	}
	respondTr, respondCtx := trace.Child(ctx, "vc.respond")
	defer respondTr.End()
	if err := e.Prover.HandleDecommit(dreq); err != nil {
		return err
	}
	return par.ForEach(ctx, len(e.states), max(e.Workers, 1), func(i int) error {
		isp := trace.Start(respondCtx, "prover.respond").WithArg("instance", int64(i))
		defer isp.End()
		r, err := e.Prover.Respond(ctx, e.states[i])
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		return emit(i, r)
	})
}

// Times reports the last round's per-instance prover cost breakdown.
func (e *LocalProver) Times() []ProverTimes {
	out := make([]ProverTimes, len(e.states))
	for i, st := range e.states {
		out[i] = st.Times
	}
	return out
}
