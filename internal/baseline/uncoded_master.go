package baseline

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// UncodedOptions configure the conventional distributed baseline.
type UncodedOptions struct {
	// K is the number of participating workers; each holds 1/K of the
	// uncoded rows. The paper runs K = 9 of the 12 available nodes.
	K int
	// Sim is the latency model.
	Sim simnet.Config
	// Seed feeds the executor's jitter stream.
	Seed int64
	// Receipts turns on the committed-verification plane: workers commit to
	// their outputs and every round carries a tenant-verifiable receipt. The
	// uncoded split is the systematic (K, K) block code (worker i evaluates
	// at data point i), so the same receipt protocol covers it unchanged — and
	// since the scheme itself never verifies anything, the receipt is the
	// ONLY way a tenant catches a Byzantine worker here.
	Receipts bool
}

// UncodedMaster is the conventional scheme: no redundancy, so the master
// must wait for ALL K workers (every straggler is on the critical path),
// and no verification, so Byzantine results flow straight into the output —
// both effects the paper's figures show.
type UncodedMaster struct {
	f        *field.Field
	opt      UncodedOptions
	workers  []*cluster.Worker
	exec     cluster.Executor
	origRows map[string]int
	// blockRows[key] is the padded per-worker row count, needed to stitch
	// results back in worker order.
	blockRows map[string]int
	issuer    *commit.Issuer
	// alphas are the receipt points: the uncoded split IS the (K, K)
	// systematic code, so worker i holds the evaluation at its data point.
	alphas []field.Elem
}

// NewUncodedMaster splits each data matrix into K contiguous uncoded row
// blocks, one per worker.
func NewUncodedMaster(f *field.Field, opt UncodedOptions, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*UncodedMaster, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("baseline: uncoded needs K >= 1")
	}
	if behaviors != nil && len(behaviors) != opt.K {
		return nil, fmt.Errorf("baseline: %d behaviours for %d workers", len(behaviors), opt.K)
	}
	if !opt.Sim.Validate() {
		return nil, fmt.Errorf("baseline: invalid latency model")
	}
	m := &UncodedMaster{
		f:         f,
		opt:       opt,
		workers:   make([]*cluster.Worker, opt.K),
		origRows:  make(map[string]int, len(data)),
		blockRows: make(map[string]int, len(data)),
	}
	for i := range m.workers {
		m.workers[i] = cluster.NewWorker(i)
		if behaviors != nil {
			m.workers[i].Behavior = behaviors[i]
		}
	}
	if opt.Receipts {
		m.issuer = commit.NewIssuer(f, m.Name())
		layout, err := poly.CodeLayout(f, opt.K, opt.K, 0)
		if err != nil {
			return nil, fmt.Errorf("baseline: uncoded receipt points: %w", err)
		}
		m.alphas = layout.Alphas
	}
	for key, x := range data {
		m.origRows[key] = x.Rows
		if m.issuer != nil {
			m.issuer.Commit(key, x)
		}
		padded := fieldmat.PadRows(x, opt.K)
		blocks := fieldmat.SplitRows(padded, opt.K)
		m.blockRows[key] = blocks[0].Rows
		for i, b := range blocks {
			m.workers[i].Shards[key] = b
		}
	}
	ve := cluster.NewVirtualExecutor(f, opt.Sim, m.workers, stragglers, opt.Seed+1)
	ve.CommitOutputs = opt.Receipts
	m.exec = ve
	return m, nil
}

// ReceiptDigests implements commit.DigestProvider: the public digest of
// every committed round key (nil when receipts are disabled).
func (m *UncodedMaster) ReceiptDigests() map[string][]commit.Digest {
	if m.issuer == nil {
		return nil
	}
	return m.issuer.Digests()
}

// SetExecutor swaps the executor (tests and real-transport runs).
func (m *UncodedMaster) SetExecutor(e cluster.Executor) { m.exec = e }

// Workers exposes the master's worker objects so real-transport deployments
// can ship the uncoded blocks to the matching remote endpoints.
func (m *UncodedMaster) Workers() []*cluster.Worker { return m.workers }

// Name implements cluster.Master.
func (m *UncodedMaster) Name() string { return "uncoded" }

// RunRound implements cluster.Master: wait for every worker and concatenate
// their block results in worker order. It is the batch-of-one projection of
// RunRoundBatch.
func (m *UncodedMaster) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := m.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

// RunRoundBatch implements cluster.Master: one broadcast of the packed
// inputs; every worker returns its block's results for the whole batch and
// the master stitches them back per vector in worker order.
func (m *UncodedMaster) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	if _, ok := m.origRows[key]; !ok {
		return nil, fmt.Errorf("baseline: unknown round key %q", key)
	}
	packed, _, err := cluster.PackInputs(inputs)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	batch := len(inputs)
	active := make([]int, m.opt.K)
	for i := range active {
		active[i] = i
	}
	results := m.exec.RunRound(ctx, key, packed, batch, iter, active)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baseline: round cancelled: %w", err)
	}
	// No redundancy means no erasure tolerance: a crashed worker's block is
	// simply gone. Fail loudly rather than silently zero-filling the output.
	if len(results) < m.opt.K {
		return nil, fmt.Errorf("baseline: uncoded round got %d of %d worker results (a worker crashed or its message was lost; the uncoded scheme cannot recover)",
			len(results), m.opt.K)
	}

	out := &cluster.BatchOutput{}
	blockLen := m.blockRows[key]
	out.Outputs = make([][]field.Elem, batch)
	concat := make([][]field.Elem, batch)
	for c := range concat {
		concat[c] = make([]field.Elem, m.opt.K*blockLen)
	}
	var lastArrival, maxCompute, maxComm float64
	var rw []commit.RoundWorker
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("baseline: worker %d failed: %w", r.Worker, r.Err)
		}
		if len(r.Output) != batch*blockLen {
			return nil, fmt.Errorf("baseline: worker %d returned %d values, want %d",
				r.Worker, len(r.Output), batch*blockLen)
		}
		for c := 0; c < batch; c++ {
			copy(concat[c][r.Worker*blockLen:], r.Output[c*blockLen:(c+1)*blockLen])
		}
		if m.issuer != nil {
			rw = append(rw, commit.RoundWorker{
				ID: r.Worker, Alpha: m.alphas[r.Worker], Output: r.Output, Commit: r.Commit,
			})
		}
		out.Used = append(out.Used, r.Worker)
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
	for c := 0; c < batch; c++ {
		out.Outputs[c] = concat[c][:m.origRows[key]]
	}
	if m.issuer != nil {
		rec, rerr := m.issuer.Issue(commit.Round{
			Key: key, Iter: iter, Batch: batch,
			N: m.opt.K, K: m.opt.K, BlockRows: blockLen,
			Inputs: packed, Outputs: out.Outputs, Workers: rw,
		})
		if rerr != nil {
			return nil, fmt.Errorf("baseline: receipt: %w", rerr)
		}
		out.Receipt = rec
	}
	out.Breakdown.Compute = maxCompute
	out.Breakdown.Comm = maxComm
	out.Breakdown.Wall = lastArrival // no verify, no decode
	return out, nil
}

// FinishIteration implements cluster.Master; the uncoded scheme never adapts.
func (m *UncodedMaster) FinishIteration(int) (float64, bool) { return 0, false }
