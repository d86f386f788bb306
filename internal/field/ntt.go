package field

// Number-theoretic transforms over F_q — the O(N log N) substrate of the
// subgroup Reed–Solomon codec (internal/poly, internal/lcc).
//
// A radix-2 NTT of size n exists exactly when n is a power of two dividing
// q−1, i.e. n ≤ 2^v₂(q−1) where v₂ is the 2-adic valuation. The paper's
// q = 2^25−39 has v₂(q−1) = 3 (transforms cap at size 8, useless beyond toy
// codes); the companion modulus QNTT = 11·2^21+1 has v₂(q−1) = 21. Plans —
// bit-reversal permutation plus per-stage twiddle tables for both
// directions — are pure functions of (q, n) and are cached on the Field,
// keyed by size, so every code over the same field shares one table set.
//
// The butterflies use the same Barrett reduction as the rest of the
// arithmetic core (one high-multiply per modular multiply, no hardware
// division); no Montgomery domain is introduced, so transform outputs are
// canonical elements interchangeable with every other kernel's.

import (
	"fmt"
	"math/bits"
)

// TwoAdicity returns v₂(q−1), the largest e with 2^e | q−1 — the log₂ of
// the largest power-of-two subgroup of F_q*, and therefore the upper bound
// on radix-2 transform sizes over this field.
func (f *Field) TwoAdicity() int {
	return bits.TrailingZeros64(f.q - 1)
}

// NTTSizeError reports a transform size the field cannot host: either the
// size is not a positive power of two, or the field's 2-adicity does not
// admit a subgroup that large. It is a typed error so modulus-selection
// layers (scheme config validation, CLIs) can distinguish "pick a bigger
// modulus" from programming errors.
type NTTSizeError struct {
	Q          uint64 // the modulus
	TwoAdicity int    // v₂(q−1)
	Size       int    // the rejected transform size
}

// Error implements error.
func (e *NTTSizeError) Error() string {
	if e.Size < 1 || e.Size&(e.Size-1) != 0 {
		return fmt.Sprintf("field: NTT size %d is not a positive power of two", e.Size)
	}
	return fmt.Sprintf("field: modulus %d has 2-adicity %d — transforms cap at size %d, cannot host size %d",
		e.Q, e.TwoAdicity, 1<<e.TwoAdicity, e.Size)
}

// NTTSupported reports whether a size-n radix-2 NTT exists over F_q:
// n is a positive power of two with n ≤ 2^v₂(q−1).
func (f *Field) NTTSupported(n int) bool {
	return n >= 1 && n&(n-1) == 0 && n <= 1<<f.TwoAdicity()
}

// NewNTT returns the field F_q after validating that it can host radix-2
// transforms up to the given size: on top of New's primality checks, q−1
// must have 2-adic valuation ≥ log₂ size. Rejections are a typed
// *NTTSizeError, so callers enumerating candidate moduli can report the
// exact 2-adicity shortfall.
func NewNTT(q uint64, size int) (*Field, error) {
	f, err := New(q)
	if err != nil {
		return nil, err
	}
	if !f.NTTSupported(size) {
		return nil, &NTTSizeError{Q: q, TwoAdicity: f.TwoAdicity(), Size: size}
	}
	return f, nil
}

// NTTPlan is a cached size-n transform: the primitive n-th root of unity,
// the bit-reversal permutation, and flat per-stage twiddle tables for the
// forward and inverse directions. Plans are immutable after construction
// and safe for concurrent use.
type NTTPlan struct {
	f *Field
	n int
	// rev[i] is i with its log₂(n) bits reversed; the pre-permutation that
	// makes the iterative Cooley–Tukey butterflies read and write in order.
	rev []int
	// tw and twInv hold all stages' twiddles in one flat slice of length n:
	// the stage with half-size m2 owns tw[m2:2·m2], whose j-th entry is
	// ω_{2m2}^j (resp. its inverse). Index 0 is unused. One slice per
	// direction keeps the whole table set at 2n elements and the stage
	// lookup a single slice expression.
	tw, twInv []Elem
	// omega is the primitive n-th root of unity the plan evaluates at;
	// invN is n⁻¹, the inverse transform's final scaling.
	omega Elem
	invN  Elem
}

// NTT returns the cached size-n transform plan, building it on first use.
// It fails with a *NTTSizeError when the field cannot host the size.
func (f *Field) NTT(n int) (*NTTPlan, error) {
	if !f.NTTSupported(n) {
		return nil, &NTTSizeError{Q: f.q, TwoAdicity: f.TwoAdicity(), Size: n}
	}
	f.nttMu.Lock()
	defer f.nttMu.Unlock()
	if p, ok := f.nttPlans[n]; ok {
		return p, nil
	}
	if f.nttPlans == nil {
		f.nttPlans = make(map[int]*NTTPlan)
	}
	if f.nttRoot == 0 {
		f.nttRoot = f.primitiveRoot()
	}
	p := f.buildPlan(n, f.Exp(f.nttRoot, (f.q-1)/uint64(n)))
	f.nttPlans[n] = p
	return p, nil
}

// buildPlan assembles the permutation and twiddle tables for size n with
// primitive n-th root omega.
func (f *Field) buildPlan(n int, omega Elem) *NTTPlan {
	p := &NTTPlan{f: f, n: n, omega: omega, invN: f.Inv(Elem(uint64(n) % f.q))}
	logN := bits.TrailingZeros(uint(n))
	p.rev = make([]int, n)
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> (64 - logN))
	}
	if n == 1 {
		return p
	}
	p.tw = make([]Elem, n)
	p.twInv = make([]Elem, n)
	omegaInv := f.Inv(omega)
	for m2 := 1; m2 < n; m2 <<= 1 {
		// Stage root ω_{2m2} = ω^(n/(2m2)) and its inverse.
		wm := f.Exp(omega, uint64(n/(2*m2)))
		wmInv := f.Exp(omegaInv, uint64(n/(2*m2)))
		w, wi := Elem(1), Elem(1)
		for j := 0; j < m2; j++ {
			p.tw[m2+j] = w
			p.twInv[m2+j] = wi
			w = f.Mul(w, wm)
			wi = f.Mul(wi, wmInv)
		}
	}
	return p
}

// Size returns the transform length n.
func (p *NTTPlan) Size() int { return p.n }

// Root returns the primitive n-th root of unity ω the plan evaluates at:
// Forward maps coefficients c to values c(ω^i) in natural order of i.
func (p *NTTPlan) Root() Elem { return p.omega }

// Forward transforms a in place from coefficient form to evaluations:
// a[i] ← Σ_j a[j]·ω^(ij). len(a) must equal Size.
//
//avcc:noalloc
func (p *NTTPlan) Forward(a []Elem) { p.transform(a, p.tw) }

// Inverse transforms a in place from evaluations back to coefficients:
// a[j] ← n⁻¹·Σ_i a[i]·ω^(−ij), the exact inverse of Forward.
//
//avcc:noalloc
func (p *NTTPlan) Inverse(a []Elem) {
	p.transform(a, p.twInv)
	for i, v := range a {
		a[i] = p.f.Mul(v, p.invN)
	}
}

// transform runs the iterative radix-2 Cooley–Tukey (decimation-in-time)
// butterflies: bit-reverse the input, then log₂ n stages of
// (u, v) → (u + w·v, u − w·v). Natural-order input yields natural-order
// output.
//
//avcc:noalloc
func (p *NTTPlan) transform(a []Elem, tw []Elem) {
	if len(a) != p.n {
		//avcc:alloc-ok fatal-misuse path; never taken on the hot path
		panic(fmt.Sprintf("field: NTT length %d on a size-%d plan", len(a), p.n))
	}
	f := p.f
	for i, r := range p.rev {
		if i < r {
			a[i], a[r] = a[r], a[i]
		}
	}
	for m2 := 1; m2 < p.n; m2 <<= 1 {
		stage := tw[m2 : 2*m2]
		for base := 0; base < p.n; base += m2 << 1 {
			for j, w := range stage {
				u := a[base+j]
				v := f.Mul(a[base+j+m2], w)
				a[base+j] = f.Add(u, v)
				a[base+j+m2] = f.Sub(u, v)
			}
		}
	}
}

// primitiveRoot returns a generator of F_q*: the smallest g whose order is
// exactly q−1, certified by checking g^((q−1)/p) ≠ 1 for every prime
// factor p of q−1. q < 2^32 keeps the trial-division factoring below 2^16
// steps; the search runs once per Field and is cached.
func (f *Field) primitiveRoot() Elem {
	factors := distinctPrimeFactors(f.q - 1)
	for g := Elem(2); ; g++ {
		ok := true
		for _, p := range factors {
			if f.Exp(g, (f.q-1)/p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
}

// distinctPrimeFactors factors m < 2^32 by trial division.
func distinctPrimeFactors(m uint64) []uint64 {
	var out []uint64
	for d := uint64(2); d*d <= m; d++ {
		if m%d == 0 {
			out = append(out, d)
			for m%d == 0 {
				m /= d
			}
		}
	}
	if m > 1 {
		out = append(out, m)
	}
	return out
}
