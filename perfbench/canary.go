package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"

	"zaatar"
)

// canary runs one raw-phase batch of three instances on p's lane through
// the public NewVerifier/NewProver API, playing a prover that cheats on two
// of them: instance 1 gets one tampered response answer, instance 2 one
// tampered commitment. The verifier must accept instance 0 and reject the
// other two; otherwise a "speed-up" could come from weaker verification.
func canary(ctx context.Context, p *program, rng *rand.Rand) error {
	prog, err := zaatar.Compile(p.source)
	if err != nil {
		return err
	}
	opts := []zaatar.RunOption{zaatar.WithBackend(p.backend), zaatar.WithParams(rhoLin, rho)}
	v, err := zaatar.NewVerifier(prog, opts...)
	if err != nil {
		return err
	}
	pr, err := zaatar.NewProver(prog, opts...)
	if err != nil {
		return err
	}
	if err := pr.HandleCommitRequest(v.Setup()); err != nil {
		return err
	}
	// Three distinct instances, so swapping commitments between them
	// changes what is committed to.
	inputs := genBatch(p, rng, 3)
	for sameOutputs(inputs[0], inputs[2]) {
		inputs[2] = p.gen(rng)
	}
	cms := make([]*zaatar.Commitment, 3)
	sts := make([]*zaatar.InstanceState, 3)
	for i, in := range inputs {
		if cms[i], sts[i], err = pr.Commit(ctx, in); err != nil {
			return err
		}
	}
	// Tamper with the commitment the cheating prover sends for instance 2:
	// on a commitment lane, instance 0's ciphertext for the first oracle;
	// on the sum-check lane, whose commitment message is the claimed
	// output, a different output.
	if cms[2].C1.A != nil {
		cms[2].C1 = cms[0].C1
	} else {
		cms[2].Output[0] = new(big.Int).Add(cms[2].Output[0], big.NewInt(1))
	}
	dec, err := v.Decommit()
	if err != nil {
		return err
	}
	if err := pr.HandleDecommit(dec); err != nil {
		return err
	}
	resps := make([]*zaatar.Response, 3)
	for i, st := range sts {
		if resps[i], err = pr.Respond(ctx, st); err != nil {
			return err
		}
	}
	// Tamper with one answer of instance 1.
	ans := resps[1].R1
	if len(ans) == 0 {
		ans = resps[1].R2
	}
	if len(ans) == 0 {
		return fmt.Errorf("%s lane: response carries no answers to tamper with", p.backend)
	}
	ans[0] = prog.Field.Add(ans[0], prog.Field.One())

	if ok, reason := v.VerifyInstance(ctx, inputs[0], cms[0], resps[0]); !ok {
		return fmt.Errorf("%s lane: honest instance rejected: %s", p.backend, reason)
	}
	if ok, _ := v.VerifyInstance(ctx, inputs[1], cms[1], resps[1]); ok {
		return fmt.Errorf("%s lane: tampered response accepted", p.backend)
	}
	if ok, _ := v.VerifyInstance(ctx, inputs[2], cms[2], resps[2]); ok {
		return fmt.Errorf("%s lane: tampered commitment accepted", p.backend)
	}
	return nil
}

// canaries checks both proof lanes: Zaatar with commitments, and sum-check.
func canaries(ctx context.Context, rng *rand.Rand) error {
	for _, p := range []*program{&decrement, &matmul4} {
		if err := canary(ctx, p, rng); err != nil {
			return fmt.Errorf("soundness canary: %w", err)
		}
	}
	return nil
}
