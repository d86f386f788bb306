// Package gavcc implements Generalized AVCC (paper Section IV-B): the AVCC
// recipe — Lagrange coding for stragglers and privacy, orthogonal
// per-worker verification for Byzantines — applied to a computation of
// polynomial degree HIGHER than the matrix-vector products of the
// logistic-regression evaluation.
//
// The computation is the Gram matrix f(X_j) = X_j·X_jᵀ for each data block,
// a deg-f = 2 polynomial in the coded shard (kernel methods, covariance
// estimation, and the Hessian computations the paper cites motivate it).
// Its pieces:
//
//   - encoding: internal/lcc with deg f = 2, so the recovery threshold is
//     2(K+T−1)+1 evaluations, and T > 0 adds privacy masks;
//   - workers: compute G̃_i = X̃_i·X̃_iᵀ (cluster.GramOp);
//   - verification: verify.GramKey — Freivalds' matrix-product check
//     G̃_i·r == X̃_i·(X̃_iᵀ·r) at O(b²) per check versus the worker's
//     O(b²·d), with the reference vector precomputed at key-generation;
//   - decode: interpolate the matrix-valued polynomial f(u(z)) from the
//     first threshold verified results and evaluate at the data points.
//
// Eq. (2) holds verbatim with deg f = 2: N ≥ 2(K+T−1) + S + M + 1, and a
// Byzantine still costs one worker, not two.
package gavcc

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/verify"
)

// GramKey is the single protocol round key this master serves.
const GramKey = "gram"

// Options configure a Gram-computation deployment.
type Options struct {
	// N, K, S, M, T as in the AVCC master; deg f is fixed at 2.
	N, K, S, M, T int
	// Sim is the latency model.
	Sim simnet.Config
	// Seed drives masks, keys and jitter.
	Seed int64
	// Receipts turns on the committed-verification plane (requires T == 0,
	// as in the AVCC master).
	Receipts bool
	// DeterministicKeys derives the secret Freivalds vectors from Seed
	// instead of the crypto/rand default — tests and benchmarks only.
	DeterministicKeys bool
}

// Feasible reports eq. (2) at deg f = 2.
func (o Options) Feasible() bool {
	return o.N >= lcc.RequiredWorkersAVCC(o.K, o.T, o.S, o.M, 2)
}

// Master runs verified coded Gram computations.
type Master struct {
	f       *field.Field
	opt     Options
	code    *lcc.Code
	workers []*cluster.Worker
	exec    cluster.Executor
	keys    []*verify.GramKey
	// blockRows is the padded per-block row count b; results are b×b.
	blockRows int
	origRows  int
	// issuer builds round receipts when Options.Receipts is set.
	issuer *commit.Issuer
}

// Result is one completed Gram round.
type Result struct {
	// Blocks holds G_j = X_j·X_jᵀ for each of the K data blocks (padded
	// rows included; padding rows/cols of the Gram matrices are zero).
	Blocks []*fieldmat.Matrix
	// Breakdown, Used, Byzantine as in the AVCC master.
	Breakdown metrics.Breakdown
	Used      []int
	Byzantine []int
	// Receipt is the round's committed-verification receipt (nil when
	// receipts are disabled).
	Receipt *commit.Receipt
}

// NewMaster encodes x (split into K row blocks, zero-padded to
// divisibility) at deg f = 2 and generates Gram verification keys.
func NewMaster(f *field.Field, opt Options, x *fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*Master, error) {
	if !opt.Feasible() {
		return nil, fmt.Errorf("gavcc: params %+v violate N >= 2(K+T-1)+S+M+1 = %d",
			opt, lcc.RequiredWorkersAVCC(opt.K, opt.T, opt.S, opt.M, 2))
	}
	if behaviors != nil && len(behaviors) != opt.N {
		return nil, fmt.Errorf("gavcc: %d behaviours for %d workers", len(behaviors), opt.N)
	}
	if !opt.Sim.Validate() {
		return nil, fmt.Errorf("gavcc: invalid latency model")
	}
	code, err := lcc.New(f, opt.N, opt.K, opt.T, 2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	padded := fieldmat.PadRows(x, opt.K)
	shards, err := code.EncodeMatrix(padded, rng)
	if err != nil {
		return nil, err
	}
	m := &Master{
		f:         f,
		opt:       opt,
		code:      code,
		workers:   make([]*cluster.Worker, opt.N),
		keys:      make([]*verify.GramKey, opt.N),
		blockRows: padded.Rows / opt.K,
		origRows:  x.Rows,
	}
	if opt.Receipts {
		if opt.T > 0 {
			return nil, fmt.Errorf("gavcc: receipts require T == 0 (got T = %d)", opt.T)
		}
		m.issuer = commit.NewIssuer(f, m.Name())
		m.issuer.Commit(GramKey, x)
	}
	keySrc := verify.Source(verify.Crypto())
	if opt.DeterministicKeys {
		keySrc = verify.Seeded(rng)
	}
	for i := range m.workers {
		w := cluster.NewWorker(i)
		w.Shards[GramKey] = shards[i]
		w.Ops[GramKey] = cluster.GramOp{}
		if behaviors != nil {
			w.Behavior = behaviors[i]
		}
		m.workers[i] = w
		m.keys[i] = verify.NewGramKey(f, keySrc, shards[i])
	}
	ve := cluster.NewVirtualExecutor(f, opt.Sim, m.workers, stragglers, opt.Seed+1)
	ve.CommitOutputs = opt.Receipts
	m.exec = ve
	return m, nil
}

// ReceiptDigests implements commit.DigestProvider (nil when receipts are
// disabled).
func (m *Master) ReceiptDigests() map[string][]commit.Digest {
	if m.issuer == nil {
		return nil
	}
	return m.issuer.Digests()
}

// SetExecutor swaps the executor (real-transport runs).
func (m *Master) SetExecutor(e cluster.Executor) { m.exec = e }

// Workers exposes the master's worker objects so real-transport deployments
// can ship the encoded shards to the matching remote endpoints.
func (m *Master) Workers() []*cluster.Worker { return m.workers }

// BlockRows returns the padded per-block row count b.
func (m *Master) BlockRows() int { return m.blockRows }

// Name implements cluster.Master.
func (m *Master) Name() string { return "gavcc" }

// RunRound implements cluster.Master for the unified scheme API. The only
// round key is "gram" and the round takes no input (each worker computes the
// Gram matrix of its own shard); Decoded is the K decoded b×b Gram blocks
// flattened in block order, reshapeable via BlockRows. Callers that want the
// blocks as matrices use Run directly.
func (m *Master) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	if key != GramKey {
		return nil, fmt.Errorf("gavcc: unknown round key %q (the only round is %q)", key, GramKey)
	}
	if len(input) != 0 {
		return nil, fmt.Errorf("gavcc: the %q round takes no input", GramKey)
	}
	res, err := m.Run(ctx, iter)
	if err != nil {
		return nil, err
	}
	out := &cluster.RoundOutput{
		Decoded:   make([]field.Elem, 0, m.opt.K*m.blockRows*m.blockRows),
		Breakdown: res.Breakdown,
		Used:      res.Used,
		Byzantine: res.Byzantine,
		Receipt:   res.Receipt,
	}
	for _, g := range res.Blocks {
		out.Decoded = append(out.Decoded, g.Data...)
	}
	return out, nil
}

// RunRoundBatch implements cluster.Master. The Gram round is input-free —
// every batch entry asks for the identical computation — so the batch is
// served by ONE coded round whose decoded output is shared by (not recomputed
// for) every entry. Entries must all be empty, as in RunRound.
func (m *Master) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("gavcc: empty batch")
	}
	for i, in := range inputs {
		if len(in) != 0 {
			return nil, fmt.Errorf("gavcc: the %q round takes no input (batch entry %d has %d elems)",
				GramKey, i, len(in))
		}
	}
	round, err := m.RunRound(ctx, key, nil, iter)
	if err != nil {
		return nil, err
	}
	out := &cluster.BatchOutput{
		Outputs:            make([][]field.Elem, len(inputs)),
		Breakdown:          round.Breakdown,
		Used:               round.Used,
		Byzantine:          round.Byzantine,
		StragglersObserved: round.StragglersObserved,
		Receipt:            round.Receipt,
	}
	// Each entry gets its own copy: Decoded is caller-private per the
	// Future/RoundOutput contract (only the accounting slices are shared),
	// so one caller post-processing its result in place must not corrupt
	// what its batch neighbours read.
	out.Outputs[0] = round.Decoded
	for i := 1; i < len(out.Outputs); i++ {
		out.Outputs[i] = field.CopyVec(round.Decoded)
	}
	return out, nil
}

// FinishIteration implements cluster.Master; the Gram master never re-codes.
func (m *Master) FinishIteration(int) (float64, bool) { return 0, false }

// Run executes one verified coded Gram round.
func (m *Master) Run(ctx context.Context, iter int) (*Result, error) {
	active := make([]int, m.opt.N)
	for i := range active {
		active[i] = i
	}
	results := m.exec.RunRound(ctx, GramKey, nil, 1, iter, active)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gavcc: round cancelled: %w", err)
	}
	threshold := m.code.Threshold()

	out := &Result{}
	var masterFree float64
	var verifiedWorkers []int
	var verifiedOutputs [][]field.Elem
	var verifiedCommits [][]byte
	var maxCompute, maxComm float64
	b := m.blockRows

	for _, r := range results {
		if len(verifiedWorkers) == threshold {
			break
		}
		if r.Err != nil {
			return nil, fmt.Errorf("gavcc: worker %d failed: %w", r.Worker, r.Err)
		}
		start := r.ArriveAt
		if masterFree > start {
			start = masterFree
		}
		// Gram check cost: b dot products of length b.
		checkTime := m.opt.Sim.MasterTime(float64(b) * float64(b))
		masterFree = start + checkTime
		out.Breakdown.Verify += checkTime

		if m.keys[r.Worker].Check(r.Output) {
			verifiedWorkers = append(verifiedWorkers, r.Worker)
			verifiedOutputs = append(verifiedOutputs, r.Output)
			verifiedCommits = append(verifiedCommits, r.Commit)
			if r.ComputeSec > maxCompute {
				maxCompute = r.ComputeSec
			}
			if r.CommSec > maxComm {
				maxComm = r.CommSec
			}
		} else {
			out.Byzantine = append(out.Byzantine, r.Worker)
		}
	}
	if len(verifiedWorkers) < threshold {
		return nil, fmt.Errorf("gavcc: only %d verified results, need %d", len(verifiedWorkers), threshold)
	}

	decoded, err := m.code.DecodeVectors(verifiedWorkers, verifiedOutputs)
	if err != nil {
		return nil, fmt.Errorf("gavcc: decode: %w", err)
	}
	decodeOps := float64(threshold)*float64(m.opt.K*b*b) + float64(threshold*threshold)
	decodeTime := m.opt.Sim.MasterTime(decodeOps)

	out.Blocks = make([]*fieldmat.Matrix, m.opt.K)
	for j, flat := range decoded {
		g := fieldmat.NewMatrix(b, b)
		copy(g.Data, flat)
		out.Blocks[j] = g
	}
	out.Used = verifiedWorkers

	if m.issuer != nil {
		flat := make([]field.Elem, 0, m.opt.K*b*b)
		for _, blk := range decoded {
			flat = append(flat, blk...)
		}
		// Worker IDs ARE code positions here (the Gram master never
		// re-codes), so each worker's evaluation point is Alphas()[id].
		alphas := m.code.Alphas()
		rw := make([]commit.RoundWorker, len(verifiedWorkers))
		for i, id := range verifiedWorkers {
			rw[i] = commit.RoundWorker{
				ID:     id,
				Alpha:  alphas[id],
				Output: verifiedOutputs[i],
				Commit: verifiedCommits[i],
			}
		}
		rec, rerr := m.issuer.Issue(commit.Round{
			Key: GramKey, Iter: iter, Batch: 1, Gram: true,
			N: m.opt.N, K: m.opt.K, BlockRows: b,
			Outputs: [][]field.Elem{flat}, Workers: rw,
		})
		if rerr != nil {
			return nil, fmt.Errorf("gavcc: receipt: %w", rerr)
		}
		out.Receipt = rec
	}

	out.Breakdown.Compute = maxCompute
	out.Breakdown.Comm = maxComm
	out.Breakdown.Decode = decodeTime
	out.Breakdown.Wall = masterFree + decodeTime
	return out, nil
}
