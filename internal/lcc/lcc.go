// Package lcc implements Lagrange Coded Computing (Yu et al., AISTATS 2019)
// as used by the AVCC paper — the one codec every master encodes with. It
// holds the encoder of Section IV-B (eq. 12–13) with T random privacy
// masks, the interpolation decoder, and — for the LCC *baseline* that AVCC
// is compared against — a Reed–Solomon style decoder that corrects M
// Byzantine results at the classic cost of 2M extra workers. The MDS code
// of Section IV-A is the special case T = 0, deg f = 1.
//
// The dataset is split into K blocks X_1..X_K; the encoding polynomial
//
//	u(z) = Σ_{j≤K} X_j·ℓ_j(z) + Σ_{K<j≤K+T} W_j·ℓ_j(z)
//
// passes through the data at points β_1..β_K and through uniformly random
// masks W_j at β_{K+1}..β_{K+T}. Worker i receives X̃_i = u(α_i) and applies
// the target polynomial f, producing one evaluation of f(u(z)), a polynomial
// of degree ≤ (K+T−1)·deg f. The master interpolates it from any
// (K+T−1)·deg f + 1 evaluations and reads f(X_j) = f(u(β_j)).
//
// poly.CodeLayout places the points (DESIGN.md §12). Two layouts exist:
//
//   - Subgroup layout (T = 0 and the field hosts a size-nextpow2(N) NTT):
//     the α_i lie in a power-of-two multiplicative subgroup of F_q*, with
//     β = α[:K]. The generator comes from O(N log N) transforms, its first
//     K columns are exact unit vectors — so the first K shards are
//     zero-copy views of the data — and the N−K parity shards are produced
//     by one fused weighted-combination kernel (field.FusedCombineInto).
//   - Lagrange layout (everything else, including the paper's modulus
//     beyond N = 8): α_i = i+1 with β = α[:K] when T = 0, and disjoint
//     point sets when T > 0 (the paper's A ∩ B = ∅ condition, so no worker
//     holds a raw data block; any T shards are jointly uniform — Theorem 1,
//     T-privacy). Every shard owns storage and is accumulated from the
//     dense generator.
//
// Both layouts are exact evaluations of the same interpolant over their
// point sets, so every decoder below is layout-agnostic.
package lcc

import (
	"fmt"
	"math/rand"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

// Code is an immutable (N, K, T) Lagrange code for computations of a fixed
// polynomial degree. It is safe for concurrent use.
type Code struct {
	f    *field.Field
	n    int
	k    int
	t    int
	degF int
	// alphas has N entries: worker evaluation points.
	alphas []field.Elem
	// gen is the (K+T)×N matrix gen[j][i] = ℓ_j(α_i).
	gen *fieldmat.Matrix
	// plans memoizes decode weights per surviving-worker point set (targets
	// are the K data points); scenario churn re-decodes the same survivor
	// set every round, so the interpolation weights amortise to a lookup.
	// See DESIGN.md §7 for the keying.
	plans *poly.DecodePlans
	// subgroup is true on the subgroup layout; parityW then holds the N−K
	// parity weight rows, shard_{K+p} = Σ_j parityW[p][j]·block_j — the
	// non-trivial generator columns, row-major for the fused kernel.
	subgroup bool
	parityW  [][]field.Elem
}

// New constructs an (n, k, t) Lagrange code for degree-degF computations.
// It validates only code-shape constraints; resiliency/security budgets
// (S, M) are properties of how many results the caller waits for, checked by
// RequiredWorkersAVCC / RequiredWorkersLCC. The point layout follows from
// (q, n, t) alone — see poly.CodeLayout.
func New(f *field.Field, n, k, t, degF int) (*Code, error) {
	if k < 1 || t < 0 || degF < 1 {
		return nil, fmt.Errorf("lcc: invalid (K,T,degF) = (%d,%d,%d)", k, t, degF)
	}
	if n < RecoveryThreshold(k, t, degF) {
		return nil, fmt.Errorf("lcc: N = %d below recovery threshold %d", n, RecoveryThreshold(k, t, degF))
	}
	lay, err := poly.CodeLayout(f, n, k, t)
	if err != nil {
		return nil, fmt.Errorf("lcc: %w", err)
	}
	c := &Code{f: f, n: n, k: k, t: t, degF: degF, alphas: lay.Alphas,
		gen: fieldmat.NewMatrix(k+t, n), plans: poly.NewDecodePlans(f, lay.Betas[:k])}
	if sg := lay.Domain; sg != nil {
		// Column i is the subgroup encoding of the unit data vectors, which
		// by uniqueness of the degree-<k interpolant equals ℓ_j(α_i) over the
		// same points, bit-exactly.
		y := make([]field.Elem, k)
		out := make([]field.Elem, n)
		for j := 0; j < k; j++ {
			clear(y)
			y[j] = 1
			sg.Encode(y, out)
			for i, v := range out {
				c.gen.Set(j, i, v)
			}
		}
		c.subgroup = true
		c.parityW = make([][]field.Elem, n-k)
		for p := range c.parityW {
			row := make([]field.Elem, k)
			for j := range row {
				row[j] = c.gen.At(j, k+p)
			}
			c.parityW[p] = row
		}
		return c, nil
	}
	// Column i is ℓ_·(α_i); the batch shares one denominator inversion over
	// the betas across all N columns.
	for i, w := range poly.InterpWeightsBatch(f, lay.Betas, lay.Alphas) {
		for j, v := range w {
			c.gen.Set(j, i, v)
		}
	}
	return c, nil
}

// RecoveryThreshold returns the number of correct evaluations needed to
// interpolate f(u(z)): (K+T−1)·deg f + 1.
func RecoveryThreshold(k, t, degF int) int { return (k+t-1)*degF + 1 }

// RequiredWorkersAVCC returns the paper's eq. (2):
// N ≥ (K+T−1)·deg f + S + M + 1. Byzantines cost the same as stragglers
// because verification discards them individually.
func RequiredWorkersAVCC(k, t, s, m, degF int) int {
	return (k+t-1)*degF + s + m + 1
}

// RequiredWorkersLCC returns the paper's eq. (1):
// N ≥ (K+T−1)·deg f + S + 2M + 1. The factor 2 is the Reed–Solomon
// error-correction cost implemented by DecodeWithErrors.
func RequiredWorkersLCC(k, t, s, m, degF int) int {
	return (k+t-1)*degF + s + 2*m + 1
}

// N returns the code length.
func (c *Code) N() int { return c.n }

// K returns the number of data blocks.
func (c *Code) K() int { return c.k }

// T returns the number of privacy masks (colluding workers tolerated).
func (c *Code) T() int { return c.t }

// DegF returns the computation degree the code is configured for.
func (c *Code) DegF() int { return c.degF }

// Field returns the underlying field.
func (c *Code) Field() *field.Field { return c.f }

// Threshold returns this code's recovery threshold.
func (c *Code) Threshold() int { return RecoveryThreshold(c.k, c.t, c.degF) }

// Alphas returns a copy of the worker evaluation points.
func (c *Code) Alphas() []field.Elem { return field.CopyVec(c.alphas) }

// Generator returns a copy of the (K+T)×N generator matrix.
func (c *Code) Generator() *fieldmat.Matrix { return c.gen.Clone() }

// NTTAccelerated reports whether this code runs on the subgroup layout:
// O(N log N) generator construction, zero-copy systematic shards, and the
// fused parity kernel. False means the Lagrange layout.
func (c *Code) NTTAccelerated() bool { return c.subgroup }

// EncodeBlocks encodes K equal-shape data blocks into N coded shards,
// drawing the T privacy masks from rng. rng may be nil when T = 0. The
// blocks are stacked into one fresh matrix first, so on the subgroup layout
// the systematic shards view that copy, never the caller's blocks.
func (c *Code) EncodeBlocks(blocks []*fieldmat.Matrix, rng *rand.Rand) ([]*fieldmat.Matrix, error) {
	if len(blocks) != c.k {
		return nil, fmt.Errorf("lcc: got %d blocks, K = %d", len(blocks), c.k)
	}
	for _, b := range blocks {
		if b.Rows != blocks[0].Rows || b.Cols != blocks[0].Cols {
			return nil, fmt.Errorf("lcc: blocks have unequal shapes")
		}
	}
	return c.EncodeMatrix(fieldmat.VStack(blocks), rng)
}

// EncodeMatrix splits x into K row blocks and encodes them. The row count
// must be divisible by K (callers pad with fieldmat.PadRows).
//
// On the subgroup layout the first K shards are views into x's backing
// slice (see EncodeMatrixInto): neither x nor those shards may be written
// after encoding.
func (c *Code) EncodeMatrix(x *fieldmat.Matrix, rng *rand.Rand) ([]*fieldmat.Matrix, error) {
	shards := make([]*fieldmat.Matrix, c.n)
	if err := c.EncodeMatrixInto(shards, x, rng); err != nil {
		return nil, err
	}
	return shards, nil
}

// EncodeMatrixInto encodes x into caller-owned shards: the steady-state form
// with zero heap allocations once the shard headers exist (T = 0; the T
// privacy masks are fresh randomness per call). shards must have length N;
// nil entries are allocated, non-nil entries — filled by an earlier call on
// this code — are resized and overwritten in place when their backing
// capacity already fits.
//
// On the subgroup layout the first K shards become views of x's row blocks
// (their Data fields alias x.Data — the systematic generator columns are
// unit vectors, so materialising them would copy the identity) and only the
// N−K parity shards own storage, written by one fused combine pass. On the
// Lagrange layout every shard owns storage and is accumulated with
// clear+AXPY straight out of x, with no intermediate split copy.
//
//avcc:noalloc
func (c *Code) EncodeMatrixInto(shards []*fieldmat.Matrix, x *fieldmat.Matrix, rng *rand.Rand) error {
	if x.Rows%c.k != 0 {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("lcc: %d rows not divisible by K = %d", x.Rows, c.k)
	}
	if len(shards) != c.n {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("lcc: got %d shard slots, code length is %d", len(shards), c.n)
	}
	if c.t > 0 && rng == nil {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("lcc: T = %d requires a random source for the privacy masks", c.t)
	}
	per := x.Rows / c.k
	width := per * x.Cols
	//avcc:alloc-ok stack closure (called directly, never escapes); shard refills inside run on first use only
	own := func(i int) *fieldmat.Matrix { // shard i with owned, right-sized storage
		sh := shards[i]
		if sh == nil {
			sh = new(fieldmat.Matrix)
			shards[i] = sh
		}
		sh.Rows, sh.Cols = per, x.Cols
		if len(sh.Data) != width {
			sh.Data = make([]field.Elem, width)
		}
		return sh
	}
	if c.subgroup {
		for i := 0; i < c.k; i++ {
			sh := shards[i]
			if sh == nil {
				sh = new(fieldmat.Matrix) //avcc:alloc-ok first-use shard-header fill; steady state reuses it
				shards[i] = sh
			}
			sh.Rows, sh.Cols = per, x.Cols
			sh.Data = x.Data[i*width : (i+1)*width : (i+1)*width]
		}
		if c.n == c.k {
			return nil
		}
		var dstArr, srcArr [64][]field.Elem
		dsts, srcs := dstArr[:0], srcArr[:0]
		if c.n-c.k > len(dstArr) {
			dsts = make([][]field.Elem, 0, c.n-c.k) //avcc:alloc-ok beyond the 64-shard stack arrays only
		}
		if c.k > len(srcArr) {
			srcs = make([][]field.Elem, 0, c.k) //avcc:alloc-ok beyond the 64-shard stack arrays only
		}
		for p := c.k; p < c.n; p++ {
			dsts = append(dsts, own(p).Data) //avcc:alloc-ok capacity reserved above (stack array or exact-cap make); cannot grow
		}
		for j := 0; j < c.k; j++ {
			srcs = append(srcs, x.Data[j*width:(j+1)*width]) //avcc:alloc-ok capacity reserved above (stack array or exact-cap make); cannot grow
		}
		c.f.FusedCombineInto(dsts, c.parityW, srcs)
		return nil
	}
	var masks []field.Elem
	if c.t > 0 {
		// The T masks occupy consecutive width-sized runs, drawn in the
		// order separate per-mask fieldmat.Rand calls would draw them.
		masks = fieldmat.Rand(c.f, rng, c.t*per, x.Cols).Data //avcc:alloc-ok fresh privacy masks per encode (T > 0 only)
	}
	for i := 0; i < c.n; i++ {
		sh := own(i)
		clear(sh.Data)
		for j := 0; j < c.k+c.t; j++ {
			coef := c.gen.At(j, i)
			if coef == 0 {
				continue
			}
			if j < c.k {
				c.f.AXPY(sh.Data, coef, x.Data[j*width:(j+1)*width])
			} else {
				c.f.AXPY(sh.Data, coef, masks[(j-c.k)*width:(j-c.k+1)*width])
			}
		}
	}
	return nil
}

// DecodeVectors recovers f(X_1)..f(X_K) (flattened as vectors) from at least
// Threshold() verified worker results, results[r] = f(u(α_{workers[r]})).
// All supplied results are trusted; AVCC guarantees this by Freivalds
// verification before decode. The results are evaluations of f(u(z)) at the
// workers' points, so decoding is interpolation, not linear solving:
// Y_j = Σ_r W[j][r]·results[r] with weights W[j][r] = ℓ'_r(β_j) over the
// first Threshold() workers' points. The weights depend only on that worker
// set and are memoized, so repeated decodes from the same survivors cost
// one lazy weighted pass per block. Extra results beyond the threshold are
// redundant once verified and are ignored.
func (c *Code) DecodeVectors(workers []int, results [][]field.Elem) ([][]field.Elem, error) {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return nil, err
	}
	out := make([][]field.Elem, c.k)
	for j := range out {
		out[j] = make([]field.Elem, dim)
	}
	if err := c.DecodeVectorsInto(out, workers, results); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeVectorsInto decodes into caller-owned block rows — the zero-
// -allocation steady-state form (on decode-plan cache hits, the round loop's
// common case). dst must have K rows matching the result dimension; rows are
// overwritten and must not alias the results.
//
//avcc:noalloc
func (c *Code) DecodeVectorsInto(dst [][]field.Elem, workers []int, results [][]field.Elem) error {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return err
	}
	if len(dst) != c.k {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("lcc: got %d output rows, code dimension is %d", len(dst), c.k)
	}
	for _, d := range dst {
		if len(d) != dim {
			//avcc:alloc-ok cold misuse path
			return fmt.Errorf("lcc: output rows do not match result dimension %d", dim)
		}
	}
	th := c.Threshold()
	weights := c.weightsFor(workers[:th])
	for j := 0; j < c.k; j++ {
		poly.CombineVectorsInto(c.f, dst[j], weights[j], results[:th])
	}
	return nil
}

// DecodeConcat decodes like DecodeVectors and concatenates the block results
// into one vector — the shape the logistic-regression master consumes
// (z = Xw as a single length-m vector).
func (c *Code) DecodeConcat(workers []int, results [][]field.Elem) ([]field.Elem, error) {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return nil, err
	}
	out := make([]field.Elem, c.k*dim)
	if err := c.DecodeConcatInto(out, workers, results); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeConcatInto is DecodeConcat writing into a caller-owned vector of
// length K·dim — zero heap allocations on decode-plan cache hits.
//
//avcc:noalloc
func (c *Code) DecodeConcatInto(dst []field.Elem, workers []int, results [][]field.Elem) error {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return err
	}
	if len(dst) != c.k*dim {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("lcc: got output length %d, want K·dim = %d", len(dst), c.k*dim)
	}
	th := c.Threshold()
	weights := c.weightsFor(workers[:th])
	for j := 0; j < c.k; j++ {
		poly.CombineVectorsInto(c.f, dst[j*dim:(j+1)*dim], weights[j], results[:th])
	}
	return nil
}

// checkDecodeArgs validates a decode request and returns the result
// dimension.
func (c *Code) checkDecodeArgs(workers []int, results [][]field.Elem) (int, error) {
	if th := c.Threshold(); len(workers) < th {
		return 0, fmt.Errorf("lcc: %d results below recovery threshold %d", len(workers), th)
	}
	if len(workers) != len(results) {
		return 0, fmt.Errorf("lcc: workers/results length mismatch")
	}
	if err := c.checkWorkers(workers); err != nil {
		return 0, err
	}
	dim := len(results[0])
	for _, r := range results {
		if len(r) != dim {
			return 0, fmt.Errorf("lcc: ragged result vectors")
		}
	}
	return dim, nil
}

// checkWorkers rejects out-of-range and duplicate worker indices. The
// duplicate scan is O(len²) on purpose: it runs on every round-loop decode
// over at most N (a few dozen) workers, where it beats allocating a map.
func (c *Code) checkWorkers(workers []int) error {
	for r, w := range workers {
		if w < 0 || w >= c.n {
			return fmt.Errorf("lcc: worker index %d out of range [0,%d)", w, c.n)
		}
		for _, prev := range workers[:r] {
			if prev == w {
				return fmt.Errorf("lcc: duplicate worker index %d", w)
			}
		}
	}
	return nil
}

// weightsFor maps a validated worker set to its memoized interpolation
// weight matrix. The point-set key is assembled on the stack for worker
// counts up to 64, so cache hits allocate nothing.
func (c *Code) weightsFor(workers []int) [][]field.Elem {
	var arr [64]field.Elem
	xs := arr[:0]
	if len(workers) > len(arr) {
		xs = make([]field.Elem, 0, len(workers))
	}
	for _, w := range workers {
		xs = append(xs, c.alphas[w])
	}
	return c.plans.Weights(xs)
}
