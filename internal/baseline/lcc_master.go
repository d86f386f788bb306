// Package baseline implements the two comparison systems of the paper's
// evaluation: the state-of-the-art LCC master (coded redundancy with
// Reed–Solomon error correction, eq. 1) and the conventional uncoded master
// (no redundancy, no detection).
package baseline

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
	"repro/internal/simnet"
)

// LCCOptions configure the LCC baseline master.
type LCCOptions struct {
	// N, K, S, M, T are the coding parameters; the design point must
	// satisfy eq. (1): N ≥ (K+T−1)·deg f + S + 2M + 1.
	N, K, S, M, T int
	// DegF is the computation degree (1 for the logreg rounds).
	DegF int
	// Sim is the latency model.
	Sim simnet.Config
	// Seed drives privacy masks and the error-locating projection.
	Seed int64
	// Receipts turns on the committed-verification plane: workers commit to
	// their outputs and every round carries a tenant-verifiable receipt.
	// Requires T == 0 (masked shards are not openable against the public
	// matrix digest) and DegF == 1.
	Receipts bool
}

// LCCMaster is the paper's baseline: it waits for N−S results (it cannot
// verify early arrivals individually — Byzantine identification is coupled
// into Reed–Solomon decoding), then decodes correcting up to M errors.
//
// When more than M results are corrupted (the paper's Fig. 3(b)/(d)
// scenario: two Byzantines against an M=1 design), error decoding fails and
// the master falls back to erasure-only decoding over the fastest results —
// the corrupted contributions flow into the output, which is exactly the
// accuracy degradation the paper reports for overloaded LCC.
type LCCMaster struct {
	f        *field.Field
	opt      LCCOptions
	rng      *rand.Rand
	code     *lcc.Code
	workers  []*cluster.Worker
	exec     cluster.Executor
	origRows map[string]int
	issuer   *commit.Issuer
}

// NewLCCMaster encodes data at (N, K, T) and wires up the virtual cluster.
func NewLCCMaster(f *field.Field, opt LCCOptions, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*LCCMaster, error) {
	if opt.DegF < 1 {
		opt.DegF = 1
	}
	if opt.N < lcc.RequiredWorkersLCC(opt.K, opt.T, opt.S, opt.M, opt.DegF) {
		return nil, fmt.Errorf("baseline: LCC params violate N >= (K+T-1)degF+S+2M+1 = %d",
			lcc.RequiredWorkersLCC(opt.K, opt.T, opt.S, opt.M, opt.DegF))
	}
	if behaviors != nil && len(behaviors) != opt.N {
		return nil, fmt.Errorf("baseline: %d behaviours for %d workers", len(behaviors), opt.N)
	}
	if !opt.Sim.Validate() {
		return nil, fmt.Errorf("baseline: invalid latency model")
	}
	code, err := lcc.New(f, opt.N, opt.K, opt.T, opt.DegF)
	if err != nil {
		return nil, err
	}
	m := &LCCMaster{
		f:        f,
		opt:      opt,
		rng:      rand.New(rand.NewSource(opt.Seed)),
		code:     code,
		workers:  make([]*cluster.Worker, opt.N),
		origRows: make(map[string]int, len(data)),
	}
	if opt.Receipts {
		if opt.T > 0 {
			return nil, fmt.Errorf("baseline: receipts require T == 0 (got T = %d)", opt.T)
		}
		if opt.DegF != 1 {
			return nil, fmt.Errorf("baseline: receipts require DegF == 1 (got DegF = %d)", opt.DegF)
		}
		m.issuer = commit.NewIssuer(f, m.Name())
	}
	for i := range m.workers {
		m.workers[i] = cluster.NewWorker(i)
		if behaviors != nil {
			m.workers[i].Behavior = behaviors[i]
		}
	}
	for key, x := range data {
		m.origRows[key] = x.Rows
		if m.issuer != nil {
			m.issuer.Commit(key, x)
		}
		padded := fieldmat.PadRows(x, opt.K)
		shards, err := code.EncodeMatrix(padded, m.rng)
		if err != nil {
			return nil, fmt.Errorf("baseline: encode %q: %w", key, err)
		}
		for i, sh := range shards {
			m.workers[i].Shards[key] = sh
		}
	}
	ve := cluster.NewVirtualExecutor(f, opt.Sim, m.workers, stragglers, opt.Seed+1)
	ve.CommitOutputs = opt.Receipts
	m.exec = ve
	return m, nil
}

// ReceiptDigests implements commit.DigestProvider: the public digest of
// every committed round key (nil when receipts are disabled).
func (m *LCCMaster) ReceiptDigests() map[string][]commit.Digest {
	if m.issuer == nil {
		return nil
	}
	return m.issuer.Digests()
}

// SetExecutor swaps the executor (tests and real-transport runs).
func (m *LCCMaster) SetExecutor(e cluster.Executor) { m.exec = e }

// Workers exposes the master's worker objects so real-transport deployments
// can ship the encoded shards to the matching remote endpoints.
func (m *LCCMaster) Workers() []*cluster.Worker { return m.workers }

// Name implements cluster.Master.
func (m *LCCMaster) Name() string { return "lcc" }

// RunRound implements cluster.Master: wait for the first N−S arrivals, then
// decode with an M-error budget. It is the batch-of-one projection of
// RunRoundBatch.
func (m *LCCMaster) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := m.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

// RunRoundBatch implements cluster.Master: one broadcast of the packed
// inputs, one Reed–Solomon decode over the stacked results (the
// error-locating projection sees every vector of the batch at once, so a
// worker corrupting ANY column is located by the same single solve).
func (m *LCCMaster) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	if _, ok := m.origRows[key]; !ok {
		return nil, fmt.Errorf("baseline: unknown round key %q", key)
	}
	packed, _, err := cluster.PackInputs(inputs)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	batch := len(inputs)
	active := make([]int, m.opt.N)
	for i := range active {
		active[i] = i
	}
	results := m.exec.RunRound(ctx, key, packed, batch, iter, active)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baseline: round cancelled: %w", err)
	}
	wait := m.opt.N - m.opt.S
	if wait > len(results) {
		wait = len(results)
	}
	if wait == 0 {
		return nil, fmt.Errorf("baseline: no worker results arrived (all %d active workers crashed or dropped)", m.opt.N)
	}
	used := results[:wait]

	out := &cluster.BatchOutput{StragglersObserved: len(results) - wait}
	var lastArrival, maxCompute, maxComm float64
	workers := make([]int, wait)
	outputs := make([][]field.Elem, wait)
	commits := make([][]byte, wait)
	for i, r := range used {
		if r.Err != nil {
			return nil, fmt.Errorf("baseline: worker %d failed: %w", r.Worker, r.Err)
		}
		workers[i] = r.Worker
		outputs[i] = r.Output
		commits[i] = r.Commit
		if r.ArriveAt > lastArrival {
			lastArrival = r.ArriveAt
		}
		if r.ComputeSec > maxCompute {
			maxCompute = r.ComputeSec
		}
		if r.CommSec > maxComm {
			maxComm = r.CommSec
		}
	}

	blocks, bad, err := m.code.DecodeWithErrors(workers, outputs, m.opt.M, m.rng)
	threshold := m.code.Threshold()
	// Reed–Solomon decode cost: one projection pass over all results, the
	// Berlekamp–Welch solve (cubic in wait), and the interpolation pass.
	decodeOps := float64(wait)*float64(len(outputs[0])) + // projection
		float64(wait*wait*wait) + // BW linear system
		float64(threshold)*float64(batch*m.origRows[key]+threshold) // interpolation
	fellBack := false
	if err != nil {
		// Over-budget corruption: fall back to erasure-only decoding on the
		// fastest threshold results. Byzantine contributions pass through.
		blocks, err = m.code.DecodeVectors(workers[:threshold], outputs[:threshold])
		if err != nil {
			return nil, fmt.Errorf("baseline: fallback decode: %w", err)
		}
		bad = nil
		fellBack = true
	}
	decodeTime := m.opt.Sim.MasterTime(decodeOps)

	out.Outputs = cluster.UnpackBlocks(blocks, batch, m.origRows[key])
	out.Used = workers
	for _, pos := range bad {
		out.Byzantine = append(out.Byzantine, workers[pos])
	}

	if m.issuer != nil {
		// The receipt attests exactly the contributions the decode consumed.
		// On the corrected path the located-bad workers were excluded by the
		// Reed–Solomon solve, so they are excluded here too; on the
		// over-budget fallback the corrupt outputs DID flow into the decode,
		// so they stay in the receipt — and receipt verification is what
		// exposes them to the tenant.
		recWorkers, recOutputs, recCommits := workers, outputs, commits
		if fellBack {
			recWorkers = workers[:threshold]
			recOutputs = outputs[:threshold]
			recCommits = commits[:threshold]
		}
		located := make(map[int]bool, len(bad))
		for _, pos := range bad {
			located[pos] = true
		}
		alphas := m.code.Alphas()
		rw := make([]commit.RoundWorker, 0, len(recWorkers))
		for i, id := range recWorkers {
			if located[i] {
				continue
			}
			rw = append(rw, commit.RoundWorker{
				ID: id, Alpha: alphas[id], Output: recOutputs[i], Commit: recCommits[i],
			})
		}
		rec, rerr := m.issuer.Issue(commit.Round{
			Key: key, Iter: iter, Batch: batch,
			N: m.opt.N, K: m.opt.K, BlockRows: (m.origRows[key] + m.opt.K - 1) / m.opt.K,
			Inputs: packed, Outputs: out.Outputs, Workers: rw,
		})
		if rerr != nil {
			return nil, fmt.Errorf("baseline: receipt: %w", rerr)
		}
		out.Receipt = rec
	}
	out.Breakdown.Compute = maxCompute
	out.Breakdown.Comm = maxComm
	out.Breakdown.Decode = decodeTime
	out.Breakdown.Wall = lastArrival + decodeTime
	return out, nil
}

// FinishIteration implements cluster.Master; LCC never adapts.
func (m *LCCMaster) FinishIteration(int) (float64, bool) { return 0, false }
