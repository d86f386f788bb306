// Package avcc implements the paper's primary contribution: the Adaptive
// Verifiable Coded Computing master (Section IV).
//
// AVCC decouples the three concerns that LCC couples into one code:
//
//   - Stragglers and privacy are handled by the Lagrange/MDS encoding
//     (internal/lcc): any recovery-threshold-many results decode.
//   - Byzantine workers are handled orthogonally by per-worker Freivalds
//     verification (internal/verify): every arriving result is checked in
//     O(m+d) before it is allowed into the decoder, so a Byzantine costs
//     one extra worker instead of LCC's two (eq. 2 vs eq. 1).
//   - Persistent stragglers/Byzantines trigger dynamic re-coding
//     (eq. 16–19): the master shrinks (N_t, K_t), re-encodes, and
//     redistributes, trading redundant work for tail latency.
//
// The master processes worker results strictly in arrival order, verifying
// each as it lands (the paper: verification "can start as soon as the first
// node responds"), and decodes the moment the recovery threshold of
// *verified* results is reached. Workers that fail verification are
// quarantined; workers that had not arrived by decode time are the observed
// stragglers S_t feeding the adaptation rule.
package avcc

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
	"repro/internal/verify"
)

// Params are the coding-theoretic knobs of an AVCC deployment.
type Params struct {
	// N is the total number of workers.
	N int
	// K is the initial code dimension (data split count).
	K int
	// S is the straggler budget.
	S int
	// M is the Byzantine budget.
	M int
	// T is the collusion/privacy budget (random masks).
	T int
	// DegF is the degree of the computed polynomial (1 for the paper's
	// logistic-regression matvec rounds).
	DegF int
	// VerifyTrials amplifies Freivalds soundness to (1/q)^trials;
	// 0 means the paper's single trial.
	VerifyTrials int
}

// Feasible reports whether the parameters satisfy the AVCC bound (eq. 2):
// N ≥ (K+T−1)·deg f + S + M + 1.
func (p Params) Feasible() bool {
	return p.N >= lcc.RequiredWorkersAVCC(p.K, p.T, p.S, p.M, p.DegF)
}

func (p Params) trials() int {
	if p.VerifyTrials <= 0 {
		return 1
	}
	return p.VerifyTrials
}

// Options configure a master beyond the coding parameters.
type Options struct {
	Params
	// Sim is the latency model used for virtual-time accounting.
	Sim simnet.Config
	// Seed drives all master-side randomness (verification keys, privacy
	// masks, jitter) for reproducible runs.
	Seed int64
	// Dynamic enables the dynamic re-coding of Section IV (step 5).
	// Disabled it yields the paper's "Static VCC" comparison point:
	// verification still rejects Byzantine results every iteration, but the
	// code never changes and no worker is ever removed.
	Dynamic bool
	// PregeneratedCodings models the paper's mitigation of generating
	// encoded datasets for multiple coding configurations offline: when
	// set, a re-code charges only shard redistribution, not re-encoding.
	PregeneratedCodings bool
	// Receipts turns on the committed-verification plane: the master
	// Merkle-commits every data matrix once, workers ship output
	// commitments, and every round issues a tenant-verifiable
	// commit.Receipt. Requires T == 0 (the receipt's attribution step
	// interpolates over the systematic points; privacy masks would make the
	// committed data unpredictable from the digest).
	Receipts bool
	// DeterministicKeys derives the secret Freivalds vectors from Seed
	// instead of the crypto/rand default — for reproducible tests and
	// benchmarks only; a guessable key voids the verification guarantee.
	DeterministicKeys bool
}

// Master is the AVCC main server.
type Master struct {
	f   *field.Field
	opt Options
	rng *rand.Rand

	// data holds the full (unencoded) matrix per round key; the master
	// needs it to re-encode under a new (N_t, K_t).
	data map[string]*fieldmat.Matrix
	// origRows remembers each key's true row count before padding.
	origRows map[string]int

	workers []*cluster.Worker
	exec    cluster.Executor

	// Current coding state.
	nCur, kCur int
	code       *lcc.Code
	// active lists the non-quarantined worker IDs.
	active []int
	// codePos maps worker ID → its shard's position in the current code.
	// Quarantining removes a worker from active but leaves the remaining
	// positions valid (the whole point of MDS: any threshold-many of the
	// surviving shards still decode) — only a re-encode reassigns positions.
	codePos map[int]int
	// keys[key][workerID] is the Freivalds key for that worker's shard.
	keys        map[string][]*verify.AmplifiedKey
	keySrc      verify.Source
	quarantined map[int]bool
	// issuer builds round receipts when Options.Receipts is set.
	issuer *commit.Issuer

	// Per-iteration observations feeding the adaptation rule. obsIter is the
	// iteration the observations belong to: a round starting a NEW iteration
	// clears them first, so observations stranded by a failed iteration (one
	// whose FinishIteration the caller rightly skipped) cannot bleed into the
	// next iteration's adaptation decision.
	obsIter        int
	iterByzantine  map[int]bool
	iterStragglers int
}

// NewMaster builds an AVCC deployment: N workers with the given behaviours,
// data encoded at (N, K), verification keys generated, and a virtual
// executor wired to the straggler schedule. data maps round keys to the
// full matrices (the logistic-regression protocol passes {"fwd": X,
// "bwd": Xᵀ}). behaviors may be nil (all honest) or length N.
func NewMaster(f *field.Field, opt Options, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*Master, error) {
	if !opt.Feasible() {
		return nil, fmt.Errorf("avcc: params %+v violate N >= (K+T-1)degF+S+M+1 = %d",
			opt.Params, lcc.RequiredWorkersAVCC(opt.K, opt.T, opt.S, opt.M, opt.DegF))
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("avcc: no data matrices supplied")
	}
	if behaviors != nil && len(behaviors) != opt.N {
		return nil, fmt.Errorf("avcc: %d behaviours for %d workers", len(behaviors), opt.N)
	}
	if !opt.Sim.Validate() {
		return nil, fmt.Errorf("avcc: invalid latency model")
	}
	m := &Master{
		f:           f,
		opt:         opt,
		rng:         rand.New(rand.NewSource(opt.Seed)),
		data:        data,
		origRows:    make(map[string]int, len(data)),
		workers:     make([]*cluster.Worker, opt.N),
		quarantined: make(map[int]bool),
	}
	m.keySrc = verify.Crypto()
	if opt.DeterministicKeys {
		m.keySrc = verify.Seeded(m.rng)
	}
	if opt.Receipts {
		if opt.T > 0 {
			return nil, fmt.Errorf("avcc: receipts require T == 0 (got T = %d)", opt.T)
		}
		m.issuer = commit.NewIssuer(f, m.Name())
	}
	for key, x := range data {
		m.origRows[key] = x.Rows
		if m.issuer != nil {
			m.issuer.Commit(key, x)
		}
	}
	for i := range m.workers {
		m.workers[i] = cluster.NewWorker(i)
		if behaviors != nil {
			m.workers[i].Behavior = behaviors[i]
		}
	}
	m.active = make([]int, opt.N)
	for i := range m.active {
		m.active[i] = i
	}
	if _, _, err := m.installCoding(opt.N, opt.K); err != nil {
		return nil, err
	}
	ve := cluster.NewVirtualExecutor(f, opt.Sim, m.workers, stragglers, opt.Seed+1)
	ve.CommitOutputs = opt.Receipts
	m.exec = ve
	m.resetIterObservations()
	return m, nil
}

// ReceiptDigests implements commit.DigestProvider: the public digest of
// every committed round key (nil when receipts are disabled).
func (m *Master) ReceiptDigests() map[string][]commit.Digest {
	if m.issuer == nil {
		return nil
	}
	return m.issuer.Digests()
}

// SetExecutor swaps the executor (tests and real-transport runs).
func (m *Master) SetExecutor(e cluster.Executor) { m.exec = e }

// Workers exposes the master's worker objects so real-transport deployments
// (rpccluster, cmd/avccdemo) can ship the encoded shards to the matching
// remote endpoints.
func (m *Master) Workers() []*cluster.Worker { return m.workers }

// Name implements cluster.Master.
func (m *Master) Name() string {
	if m.opt.Dynamic {
		return "avcc"
	}
	return "static-vcc"
}

// Coding returns the current (N_t, K_t).
func (m *Master) Coding() (n, k int) { return m.nCur, m.kCur }

// ActiveWorkers returns a copy of the current non-quarantined worker IDs.
func (m *Master) ActiveWorkers() []int { return append([]int(nil), m.active...) }

// installCoding (re)encodes every data key at (n, k), assigns shards to the
// currently active workers, regenerates verification keys, and returns the
// total encode op count and total distributed elements for cost accounting.
func (m *Master) installCoding(n, k int) (encodeOps, distElems float64, err error) {
	code, err := lcc.New(m.f, n, k, m.opt.T, m.opt.DegF)
	if err != nil {
		return 0, 0, fmt.Errorf("avcc: cannot build (%d,%d) code: %w", n, k, err)
	}
	if len(m.active) != n {
		return 0, 0, fmt.Errorf("avcc: %d active workers for code length %d", len(m.active), n)
	}
	newKeys := make(map[string][]*verify.AmplifiedKey, len(m.data))
	newPos := make(map[int]int, len(m.active))
	for pos, id := range m.active {
		newPos[id] = pos
	}
	trials := m.opt.trials()
	for key, x := range m.data {
		padded := fieldmat.PadRows(x, k)
		shards, err := code.EncodeMatrix(padded, m.rng)
		if err != nil {
			return 0, 0, fmt.Errorf("avcc: encode %q: %w", key, err)
		}
		// Encoding each shard combines K+T blocks of shard-size elements.
		shardElems := float64(shards[0].Rows) * float64(shards[0].Cols)
		encodeOps += float64(k+m.opt.T) * shardElems * float64(n)
		keys := make([]*verify.AmplifiedKey, len(m.workers))
		for pos, id := range m.active {
			m.workers[id].Shards[key] = shards[pos]
			keys[id] = verify.NewAmplifiedKey(m.f, m.keySrc, shards[pos], trials)
			distElems += shardElems
		}
		// Key generation is trials × one pass over the shard.
		encodeOps += float64(trials) * shardElems * float64(n)
		newKeys[key] = keys
	}
	m.code = code
	m.nCur, m.kCur = n, k
	m.keys = newKeys
	m.codePos = newPos
	return encodeOps, distElems, nil
}

func (m *Master) resetIterObservations() {
	m.iterByzantine = make(map[int]bool)
	m.iterStragglers = 0
}

// RunRound implements cluster.Master: broadcast input for the round key,
// verify results in arrival order, decode from the first threshold-many
// verified results. It is the batch-of-one projection of RunRoundBatch, so
// the two paths cannot drift.
func (m *Master) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := m.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

// RunRoundBatch implements cluster.Master: the whole batch runs as ONE coded
// round — inputs packed into one broadcast, each worker computing the full
// batch against its shard, ONE stacked Freivalds sweep per arriving result
// (verify.CheckBatch), and one decode whose interpolation weights are shared
// by every vector in the batch.
func (m *Master) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	if _, ok := m.data[key]; !ok {
		return nil, fmt.Errorf("avcc: unknown round key %q", key)
	}
	packed, _, err := cluster.PackInputs(inputs)
	if err != nil {
		return nil, fmt.Errorf("avcc: %w", err)
	}
	if iter != m.obsIter {
		// First round of a new iteration: discard observations stranded by a
		// previous iteration whose FinishIteration never ran (failed rounds
		// skip adaptation). Within one iteration, rounds still accumulate.
		m.resetIterObservations()
		m.obsIter = iter
	}
	batch := len(inputs)
	results := m.exec.RunRound(ctx, key, packed, batch, iter, m.active)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("avcc: round cancelled: %w", err)
	}
	threshold := m.code.Threshold()
	trials := float64(m.opt.trials())

	out := &cluster.BatchOutput{}
	var masterFree float64 // when the master finishes its current check
	var verifiedWorkers []int
	var verifiedOutputs [][]field.Elem
	var verifiedCommits [][]byte
	var maxCompute, maxComm float64
	var processedArrivals []float64

	for _, r := range results {
		if len(verifiedWorkers) == threshold {
			break
		}
		processedArrivals = append(processedArrivals, r.ArriveAt)
		if r.Err != nil {
			return nil, fmt.Errorf("avcc: worker %d failed: %w", r.Worker, r.Err)
		}
		start := r.ArriveAt
		if masterFree > start {
			start = masterFree
		}
		checkOps := trials * float64(len(packed)+len(r.Output))
		checkTime := m.opt.Sim.MasterTime(checkOps)
		masterFree = start + checkTime
		out.Breakdown.Verify += checkTime

		if m.keys[key][r.Worker].CheckBatch(packed, r.Output, batch) {
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
			m.iterByzantine[r.Worker] = true
		}
	}
	if len(verifiedWorkers) < threshold {
		return nil, fmt.Errorf("avcc: only %d verified results, need %d (Byzantines exceed budget)",
			len(verifiedWorkers), threshold)
	}

	// Translate worker IDs to code positions for the decoder.
	codeIdx := make([]int, len(verifiedWorkers))
	for i, id := range verifiedWorkers {
		codeIdx[i] = m.codePos[id]
	}
	blocks, err := m.code.DecodeVectors(codeIdx, verifiedOutputs)
	if err != nil {
		return nil, fmt.Errorf("avcc: decode: %w", err)
	}
	var decodedLen int
	for _, blk := range blocks {
		decodedLen += len(blk)
	}
	decodeOps := float64(threshold)*float64(decodedLen) + float64(threshold*threshold)
	decodeTime := m.opt.Sim.MasterTime(decodeOps)

	out.Outputs = cluster.UnpackBlocks(blocks, batch, m.origRows[key])
	out.Used = verifiedWorkers

	if m.issuer != nil {
		// The receipt binds exactly what the decode consumed: the verified
		// threshold set, at the CURRENT (possibly re-coded) split. N is the
		// code's length, not the active count: quarantine drops workers
		// but the survivors keep their code positions.
		rw := make([]commit.RoundWorker, len(verifiedWorkers))
		alphas := m.code.Alphas()
		for i, id := range verifiedWorkers {
			rw[i] = commit.RoundWorker{
				ID:     id,
				Alpha:  alphas[m.codePos[id]],
				Output: verifiedOutputs[i],
				Commit: verifiedCommits[i],
			}
		}
		rec, rerr := m.issuer.Issue(commit.Round{
			Key: key, Iter: iter, Batch: batch,
			N: m.code.N(), K: m.kCur, BlockRows: (m.origRows[key] + m.kCur - 1) / m.kCur,
			Inputs: packed, Outputs: out.Outputs, Workers: rw,
		})
		if rerr != nil {
			return nil, fmt.Errorf("avcc: receipt: %w", rerr)
		}
		out.Receipt = rec
	}

	// Observed stragglers S_t: workers whose results arrived (or would
	// arrive) anomalously late relative to the round's typical arrival.
	// This covers both stragglers the master skipped AND stragglers it was
	// *forced* to wait for when Byzantines ate its slack (the paper's
	// Fig. 5 scenario) — while NOT counting spare fast workers it simply
	// did not need, nor a fast worker that happened to rank just past the
	// threshold.
	byzSet := make(map[int]bool, len(out.Byzantine))
	for _, id := range out.Byzantine {
		byzSet[id] = true
	}
	med := median(processedArrivals)
	arrived := make(map[int]bool, len(results))
	for _, r := range results {
		arrived[r.Worker] = true
		if r.ArriveAt > stragglerDetectFactor*med && !byzSet[r.Worker] {
			out.StragglersObserved++
		}
	}
	// Active workers with no result at all — crashed nodes, dropped
	// messages — are stragglers with infinite arrival time: erasures the
	// adaptation rule must see, or churn would never trigger a re-code.
	for _, id := range m.active {
		if !arrived[id] {
			out.StragglersObserved++
		}
	}
	if out.StragglersObserved > m.iterStragglers {
		m.iterStragglers = out.StragglersObserved
	}
	out.Breakdown.Compute = maxCompute
	out.Breakdown.Comm = maxComm
	out.Breakdown.Decode = decodeTime
	out.Breakdown.Wall = masterFree + decodeTime
	return out, nil
}

// FinishIteration implements the dynamic coding rule (eq. 16–19). With M_t
// Byzantines caught and S_t stragglers observed this iteration, the slack
//
//	A_t = N_t − M_t − S_t − threshold(K_t)  (+1 −1 bookkeeping folded in)
//
// decides the next scheme: quarantine the Byzantines (N_{t+1} = N_t − M_t)
// and, when A_t < 0, shrink K by ⌊A_t/deg f⌋ so the remaining honest
// non-stragglers suffice to decode without tail latency.
func (m *Master) FinishIteration(iter int) (recodeCost float64, recoded bool) {
	defer m.resetIterObservations()
	if !m.opt.Dynamic {
		return 0, false
	}
	mt := len(m.iterByzantine)
	st := m.iterStragglers

	// Quarantine is free: flagged workers are dropped from the active pool
	// but the surviving shards keep their code positions — the MDS property
	// guarantees any threshold-many of them still decode. Only a change of
	// K forces a re-encode.
	if mt > 0 {
		keep := m.active[:0]
		for _, id := range m.active {
			if m.iterByzantine[id] {
				m.quarantined[id] = true
				continue
			}
			keep = append(keep, id)
		}
		m.active = keep
		m.nCur = len(m.active)
	}
	nNext := len(m.active)

	// Slack beyond what decode needs: how many more stragglers we could
	// absorb. threshold = (K+T-1)degF + 1 results must arrive and verify.
	at := nNext - st - m.code.Threshold()
	kNext := m.kCur
	if at < 0 {
		kNext = m.kCur + floorDiv(at, m.opt.DegF)
		if kNext < 1 {
			kNext = 1
		}
	}
	if kNext == m.kCur {
		return 0, false
	}
	// A valid code must still exist; if not, keep the old one (degenerate
	// end state: fewer workers than the minimum — surface at next RunRound).
	if nNext < lcc.RecoveryThreshold(kNext, m.opt.T, m.opt.DegF) || nNext < 1 {
		return 0, false
	}
	encodeOps, distElems, err := m.installCoding(nNext, kNext)
	if err != nil {
		return 0, false
	}
	// The one-time cost: redistributing every worker's new shard (the 41 s
	// of the paper's Fig. 5). Re-encoding itself is additionally charged
	// unless coding configurations were pre-generated offline (the paper's
	// stated strategy, Section IV step 5).
	cost := m.opt.Sim.CommTime(0)*float64(nNext) + distElems/m.opt.Sim.LinkElemsPerSec
	if !m.opt.PregeneratedCodings {
		cost += m.opt.Sim.MasterTime(encodeOps)
	}
	return cost, true
}

// stragglerDetectFactor flags a worker as a straggler when its result
// arrived later than this multiple of the round's median consumed arrival.
// The paper's stragglers are up to ~10× slow on compute; 2× separates them
// from jitter even when link time dilutes the compute gap.
const stragglerDetectFactor = 2.0

// median returns the median of xs (0 for empty input). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	// Insertion sort: the slice is at most N (≈ a dozen) entries.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// floorDiv is integer division rounding toward negative infinity (Go's /
// truncates toward zero, which would under-shrink K for negative slack).
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
