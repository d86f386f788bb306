package poly

import (
	"errors"
	"fmt"

	"repro/internal/field"
)

// Layout is the evaluation-point layout of an (n, k, t) Lagrange code: the
// one place that decides where workers, data blocks and privacy masks sit
// on the line. The encoder (internal/lcc), the uncoded baseline's receipt
// points and the offline receipt verifier (internal/commit) all derive
// their points from CodeLayout, so a code built on either layout can be
// re-derived from (q, n, k, t) alone.
type Layout struct {
	// Alphas are the n worker evaluation points.
	Alphas []field.Elem
	// Betas are the k data points followed by the t mask points. With
	// t = 0 the data points are Alphas[:k] (the systematic property).
	Betas []field.Elem
	// Domain is the subgroup codec when the layout is the subgroup one,
	// nil on the Lagrange layout.
	Domain *Subgroup
}

// CodeLayout picks the point layout of an (n, k, t) code over f. It takes
// the subgroup layout (poly.Subgroup: points in a power-of-two
// multiplicative subgroup, O(N log N) transforms) exactly when t = 0 and
// the modulus hosts a size-nextpow2(n) NTT; otherwise the Lagrange layout
// of field.DistinctPoints — α_i = i+1 with β = α[:k] when t = 0, and
// disjoint sets β = 1..k+t, α = k+t+1.. when t > 0 (the paper's A ∩ B = ∅
// privacy condition). The paper's modulus (2-adicity 3) therefore stays on
// the Lagrange layout beyond n = 8.
func CodeLayout(f *field.Field, n, k, t int) (*Layout, error) {
	if k < 1 || t < 0 || n < k {
		return nil, fmt.Errorf("poly: invalid code layout (N,K,T) = (%d,%d,%d)", n, k, t)
	}
	points := uint64(n)
	if t > 0 {
		points = uint64(n + k + t)
	}
	if points >= f.Q() {
		return nil, fmt.Errorf("poly: %d evaluation points do not fit in field of size %d", points, f.Q())
	}
	if t > 0 {
		return &Layout{Alphas: f.DistinctPoints(n, uint64(k+t)+1), Betas: f.DistinctPoints(k+t, 1)}, nil
	}
	sg, err := NewSubgroup(f, n, k)
	if err == nil {
		pts := sg.Points()
		return &Layout{Alphas: pts, Betas: pts[:k:k], Domain: sg}, nil
	}
	// Fall back to the Lagrange layout only on the one expected failure:
	// the field's 2-adicity cannot host the domain (*field.NTTSizeError,
	// wrapped with context by NewSubgroup — hence errors.As, not a type
	// assertion). Anything else is a real error and propagates.
	var sizeErr *field.NTTSizeError
	if !errors.As(err, &sizeErr) {
		return nil, fmt.Errorf("poly: building (%d,%d) subgroup domain: %w", n, k, err)
	}
	alphas := f.DistinctPoints(n, 1)
	return &Layout{Alphas: alphas, Betas: alphas[:k:k]}, nil
}
