package vc

import (
	"context"
	"math/big"
	"testing"

	"zaatar/internal/compiler"
	"zaatar/internal/pcp"
)

// commitInstance runs one prover over req and returns its commitment and
// instance state.
func commitInstance(t *testing.T, prog *programConfig, req *CommitRequest, inputs []*big.Int) (*Commitment, *InstanceState, *Prover) {
	t.Helper()
	p, err := NewProver(prog.prog, prog.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.HandleCommitRequest(req); err != nil {
		t.Fatal(err)
	}
	cm, st, err := p.Commit(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	return cm, st, p
}

type programConfig struct {
	prog *compiler.Program
	cfg  Config
}

// TestSplitCombineMatchesSingleProver proves one instance twice: once by a
// single prover over the full commit request, once by two cooperating
// provers over the masked shares. The combined commitment must equal the
// single prover's bit for bit, and verification must accept it against
// either prover's responses.
func TestSplitCombineMatchesSingleProver(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, false)
	pc := &programConfig{prog: prog, cfg: cfg}
	inputs := inputsFor(3, -1, 4, 2)

	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := v.Setup()
	if len(req.EncR1) < 2 || len(req.EncR2) < 2 {
		t.Fatalf("oracle too short to split: %d/%d", len(req.EncR1), len(req.EncR2))
	}

	full, _, _ := commitInstance(t, pc, req, inputs)

	parts := SplitCommitRequest(req, 2)
	if len(parts) != 2 {
		t.Fatalf("want 2 shares, got %d", len(parts))
	}
	cmA, stA, pA := commitInstance(t, pc, parts[0], inputs)
	cmB, _, _ := commitInstance(t, pc, parts[1], inputs)

	combined, err := v.CombineCommitments([]*Commitment{cmA, cmB})
	if err != nil {
		t.Fatal(err)
	}
	if combined.C1.A.Cmp(full.C1.A) != 0 || combined.C1.B.Cmp(full.C1.B) != 0 ||
		combined.C2.A.Cmp(full.C2.A) != 0 || combined.C2.B.Cmp(full.C2.B) != 0 {
		t.Fatal("combined commitment differs from the single-prover commitment")
	}

	dreq, err := v.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	if err := pA.HandleDecommit(dreq); err != nil {
		t.Fatal(err)
	}
	resp, err := pA.Respond(context.Background(), stA)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := v.VerifyInstance(context.Background(), inputs, combined, resp); !ok {
		t.Fatalf("combined commitment rejected: %s", reason)
	}
	_ = cmB
}

// TestSplitSharesCoverEachIndexOnce checks the share geometry: every oracle
// position is live in exactly one share.
func TestSplitSharesCoverEachIndexOnce(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, false)
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := v.Setup()
	for _, k := range []int{1, 2, 3} {
		parts := SplitCommitRequest(req, k)
		seen := make([]int, len(req.EncR1))
		for _, p := range parts {
			for i, ct := range p.EncR1 {
				if !isNeutral(ct) {
					seen[i]++
				}
			}
			if len(p.EncR1) != len(req.EncR1) || len(p.EncR2) != len(req.EncR2) {
				t.Fatalf("k=%d: share changed the oracle length", k)
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("k=%d: position %d live in %d shares", k, i, n)
			}
		}
	}
}

// TestCombineRejectsDisagreeingOutputs: cooperating provers must claim the
// same outputs; a mismatch is a protocol failure, not a silent pick.
func TestCombineRejectsDisagreeingOutputs(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, false)
	pc := &programConfig{prog: prog, cfg: cfg}
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := v.Setup()
	parts := SplitCommitRequest(req, 2)
	cmA, _, _ := commitInstance(t, pc, parts[0], inputsFor(3, -1, 4, 2))
	cmB, _, _ := commitInstance(t, pc, parts[1], inputsFor(1, 1, 1, 1))
	if _, err := v.CombineCommitments([]*Commitment{cmA, cmB}); err == nil {
		t.Fatal("combining commitments with different outputs should fail")
	}
}
