package poly

// Subgroup evaluation and interpolation — the O(N log N) replacement for
// the Lagrange formulas when the evaluation points can be laid out inside a
// power-of-two multiplicative subgroup of F_q* (which requires an
// NTT-friendly modulus; see internal/field/ntt.go and DESIGN.md §12).
//
// The codec problem is systematic Reed–Solomon: given a column's K data
// values, find the unique degree-<K interpolant through the K data points
// and evaluate it at all N code points. Over arbitrary distinct points
// (field.DistinctPoints, the paper's modulus) both directions cost O(N·K)
// per column. Over a subgroup domain both become transforms:
//
//	nn = next power of two ≥ N   — the full domain ⟨ω⟩, ω of order nn
//	hh = largest power of two ≤ K — a subgroup H = ⟨ω^cc⟩, cc = nn/hh
//	r  = K − hh                   — data overflow into the next coset
//
// The nn domain points split into cc cosets ω^t·H. Points are laid out
// coset-major (coset 0 = H first, then coset ω·H, …) so the K data points
// are exactly H plus the first r points of ω·H. Interpolation is then:
//
//  1. a = INTT_hh(data on H): the degree-<hh interpolant on the subgroup.
//  2. The target p (degree < K) differs from a by a multiple of H's
//     vanishing polynomial Z(x) = x^hh − 1: p = a + Z·B with deg B < r.
//     On the coset ω·H, Z is the CONSTANT ζ = ω^hh − 1 (the coset trick),
//     so B's values at the r extra data points fall out of a twisted
//     NTT_hh of a (a's values on ω·H) and one division by ζ.
//  3. B itself is interpolated from its r points; r < K/2, so the dense
//     O(r²) Lagrange build is quadratically smaller than the problem and
//     vanishes at protocol scale (r ≤ a few dozen worker-count-sized
//     points; recursing the same trick would yield O(N log² N) if ever
//     needed).
//
// Evaluation at all N points is one size-nn NTT of p plus an index map
// from the coset-major layout to natural ω-exponent order.

import (
	"fmt"

	"repro/internal/field"
)

// Subgroup is an (n, k) systematic evaluation/interpolation domain embedded
// in the size-nn multiplicative subgroup of F_q*. Immutable after
// construction; safe for concurrent use (the underlying NTT plans are).
type Subgroup struct {
	f    *field.Field
	n, k int
	nn   int // next power of two ≥ n: the full domain size
	hh   int // largest power of two ≤ k: the data subgroup H's order
	cc   int // nn/hh: number of cosets of H in the domain
	r    int // k − hh: data points overflowing into coset ω·H

	big   *field.NTTPlan // size nn, root ω
	small *field.NTTPlan // size hh, root ω^cc (same generator, so exact)

	// points is the full coset-major layout: points[t·hh+j] = ω^(t+j·cc).
	// exps maps a layout index to its natural ω-exponent, the read-out
	// permutation after a size-nn forward transform.
	points []field.Elem
	exps   []int

	// Coset-trick constants, set when r > 0: wpow[i] = ω^i twists a
	// polynomial of degree < hh onto the coset ω·H, and zetaInv is
	// (ω^hh − 1)⁻¹, the inverse of Z's constant value there.
	wpow    []field.Elem
	zetaInv field.Elem
}

// NewSubgroup builds the (n, k) domain, failing with the field's typed
// *field.NTTSizeError when the modulus cannot host a size-nextpow2(n)
// transform — the exact criterion under which CodeLayout falls back to the
// Lagrange layout.
func NewSubgroup(f *field.Field, n, k int) (*Subgroup, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("poly: invalid subgroup domain (n,k) = (%d,%d)", n, k)
	}
	nn := 1
	for nn < n {
		nn <<= 1
	}
	big, err := f.NTT(nn)
	if err != nil {
		// Wrapped, not returned bare: callers matching the NTT size error
		// must use errors.As (enforced by the typederr analyzer).
		return nil, fmt.Errorf("poly: size-%d subgroup domain: %w", nn, err)
	}
	hh := 1
	for hh<<1 <= k {
		hh <<= 1
	}
	s := &Subgroup{f: f, n: n, k: k, nn: nn, hh: hh, cc: nn / hh, r: k - hh, big: big}
	if s.small, err = f.NTT(hh); err != nil {
		return nil, err // unreachable: hh ≤ nn already fits the 2-adicity
	}
	omega := big.Root()
	s.points = make([]field.Elem, nn)
	s.exps = make([]int, nn)
	for t := 0; t < s.cc; t++ {
		for j := 0; j < hh; j++ {
			e := t + j*s.cc
			s.exps[t*hh+j] = e
			s.points[t*hh+j] = f.Exp(omega, uint64(e))
		}
	}
	if s.r > 0 {
		s.wpow = make([]field.Elem, hh)
		w := field.Elem(1)
		for i := range s.wpow {
			s.wpow[i] = w
			w = f.Mul(w, omega)
		}
		zeta := f.Sub(f.Exp(omega, uint64(hh)), 1)
		// ζ = 0 would need ω^hh = 1, impossible while r > 0 (then k > hh
		// forces nn > hh, and ω has exact order nn).
		s.zetaInv = f.Inv(zeta)
	}
	return s, nil
}

// N and K return the domain's code length and dimension.
func (s *Subgroup) N() int { return s.n }

// K returns the data dimension.
func (s *Subgroup) K() int { return s.k }

// Points returns the n evaluation points in layout order: the first k are
// the data points. The slice is shared and must not be mutated.
func (s *Subgroup) Points() []field.Elem { return s.points[:s.n] }

// Interp returns the coefficients of the unique degree-<k polynomial with
// p(Points()[i]) = y[i] for i < k, in O(nn log nn + r²).
func (s *Subgroup) Interp(y []field.Elem) Poly {
	if len(y) != s.k {
		panic(fmt.Sprintf("poly: Interp got %d values on a k=%d domain", len(y), s.k))
	}
	f := s.f
	// Step 1: the interpolant on the subgroup H.
	a := make(Poly, s.hh, s.k)
	copy(a, y[:s.hh])
	s.small.Inverse(a)
	if s.r == 0 {
		return Normalize(a)
	}
	// Step 2: a's values on the coset ω·H via twist + forward transform:
	// a(ω·η^j) = Σ_i (a_i·ω^i)·η^(ij) with η = ω^cc, the size-hh root.
	twisted := make([]field.Elem, s.hh)
	for i, ai := range a {
		twisted[i] = f.Mul(ai, s.wpow[i])
	}
	s.small.Forward(twisted)
	// B's values at the r extra data points: B = (y − a)/ζ there.
	xs := make([]field.Elem, s.r)
	ys := make([]field.Elem, s.r)
	for j := 0; j < s.r; j++ {
		xs[j] = s.points[s.hh+j]
		ys[j] = f.Mul(f.Sub(y[s.hh+j], twisted[j]), s.zetaInv)
	}
	// Step 3: p = a + (x^hh − 1)·B.
	b := Interpolate(f, xs, ys)
	p := a[:s.k]
	for i := s.hh; i < s.k; i++ {
		p[i] = 0
	}
	for i, bi := range b {
		p[i] = f.Sub(p[i], bi)
		p[s.hh+i] = f.Add(p[s.hh+i], bi)
	}
	return Normalize(p)
}

// Eval writes p's values at the first len(out) layout points into out
// (len(out) ≤ n), in O(nn log nn): zero-pad to the domain size, one forward
// transform, and the layout read-out permutation. deg p must be < nn.
func (s *Subgroup) Eval(p Poly, out []field.Elem) {
	if len(p) > s.nn {
		panic(fmt.Sprintf("poly: Eval degree %d exceeds domain size %d", len(p)-1, s.nn))
	}
	if len(out) > s.n {
		panic(fmt.Sprintf("poly: Eval asked for %d points on an n=%d domain", len(out), s.n))
	}
	buf := make([]field.Elem, s.nn)
	copy(buf, p)
	s.big.Forward(buf)
	for i := range out {
		out[i] = buf[s.exps[i]]
	}
}

// Encode is the systematic codec: out[i] = p(Points()[i]) for the unique
// degree-<k interpolant p through the k data values y. By uniqueness
// out[:k] equals y exactly — the systematic property the MDS layer's
// zero-copy shards rely on.
func (s *Subgroup) Encode(y []field.Elem, out []field.Elem) {
	s.Eval(s.Interp(y), out)
}
