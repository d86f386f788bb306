package lcc

// Differential suite pinning the subgroup layout to the Lagrange formulas:
// the subgroup-domain generator, encoder, and decoder must be bit-exact
// with dense Lagrange arithmetic over the SAME evaluation points, for
// power-of-two and non-power-of-two k, including the all-(q−1) worst case
// that stresses the fused kernel's lazy accumulators — and the Lagrange
// layout on the paper modulus must stay bit-exact with a reference encoder
// and decoder kept here.

import (
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

var nttDiffShapes = []struct{ n, k int }{
	{12, 9}, {4, 2}, {16, 8}, {12, 7}, {8, 8}, {16, 15},
}

// TestNTTAcceleratedGuard pins the dispatch criterion: the subgroup layout
// engages exactly when T = 0 and the modulus' 2-adicity hosts nextpow2(N)
// points. A silent fallback on the NTT modulus at the paper's shape would
// be a perf regression invisible to correctness tests — this is the guard.
func TestNTTAcceleratedGuard(t *testing.T) {
	cases := []struct {
		name          string
		f             *field.Field
		n, k, t, degF int
		want          bool
	}{
		{"ntt modulus paper shape", field.NTTFriendly(), 12, 9, 0, 1, true},
		{"ntt modulus large", field.NTTFriendly(), 1 << 10, 700, 0, 1, true},
		{"ntt modulus degree two", field.NTTFriendly(), 12, 4, 0, 2, true},
		{"ntt modulus with privacy masks", field.NTTFriendly(), 12, 4, 1, 2, false},
		{"paper modulus paper shape", field.Default(), 12, 9, 0, 1, false},
		{"paper modulus within adicity", field.Default(), 8, 5, 0, 1, true},
		{"paper modulus just beyond adicity", field.Default(), 9, 5, 0, 1, false},
		{"q=97 paper shape", field.MustNew(97), 12, 9, 0, 1, true}, // 96 = 2^5·3
	}
	for _, c := range cases {
		code, err := New(c.f, c.n, c.k, c.t, c.degF)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := code.NTTAccelerated(); got != c.want {
			t.Errorf("%s: NTTAccelerated = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSubgroupGeneratorMatchesLagrange rebuilds the fast-path generator with
// poly.InterpWeightsBatch over the SAME subgroup points: by uniqueness of
// the interpolant the transform pipeline must reproduce ℓ_j(α_i) bit-exactly,
// and the systematic columns must be exact unit vectors (the property the
// zero-copy shards rely on).
func TestSubgroupGeneratorMatchesLagrange(t *testing.T) {
	f := field.NTTFriendly()
	for _, sh := range nttDiffShapes {
		code, err := New(f, sh.n, sh.k, 0, 1)
		if err != nil {
			t.Fatalf("(%d,%d): %v", sh.n, sh.k, err)
		}
		if !code.NTTAccelerated() {
			t.Fatalf("(%d,%d): expected the fast path", sh.n, sh.k)
		}
		gen := code.Generator()
		ref := poly.InterpWeightsBatch(f, code.alphas[:sh.k], code.alphas)
		for i := 0; i < sh.n; i++ {
			for j := 0; j < sh.k; j++ {
				if gen.At(j, i) != ref[i][j] {
					t.Fatalf("(%d,%d): gen[%d][%d] = %d, Lagrange says %d",
						sh.n, sh.k, j, i, gen.At(j, i), ref[i][j])
				}
			}
		}
		for i := 0; i < sh.k; i++ {
			for j := 0; j < sh.k; j++ {
				want := field.Elem(0)
				if i == j {
					want = 1
				}
				if gen.At(j, i) != want {
					t.Fatalf("(%d,%d): systematic column %d is not a unit vector", sh.n, sh.k, i)
				}
			}
		}
	}
}

// naiveEncode is the reference encoder: per-element Σ_j gen[j][i]·block_j
// with immediate modular arithmetic — no lazy accumulation, no fused
// kernel, no transforms.
func naiveEncode(f *field.Field, gen *fieldmat.Matrix, blocks []*fieldmat.Matrix, n int) []*fieldmat.Matrix {
	out := make([]*fieldmat.Matrix, n)
	for i := 0; i < n; i++ {
		sh := fieldmat.NewMatrix(blocks[0].Rows, blocks[0].Cols)
		for j, b := range blocks {
			coef := gen.At(j, i)
			for e, v := range b.Data {
				sh.Data[e] = f.Add(sh.Data[e], f.Mul(coef, v))
			}
		}
		out[i] = sh
	}
	return out
}

// TestNTTEncodeMatchesNaiveReference drives the full fast-path encoder
// (zero-copy shards + fused parity kernel) against the naive reference,
// including a matrix of all q−1 values — the lazy-accumulator worst case.
func TestNTTEncodeMatchesNaiveReference(t *testing.T) {
	f := field.NTTFriendly()
	rng := rand.New(rand.NewSource(91))
	for _, sh := range nttDiffShapes {
		code, err := New(f, sh.n, sh.k, 0, 1)
		if err != nil {
			t.Fatalf("(%d,%d): %v", sh.n, sh.k, err)
		}
		for trial := 0; trial < 2; trial++ {
			x := fieldmat.Rand(f, rng, 3*sh.k, 17)
			if trial == 1 {
				for e := range x.Data {
					x.Data[e] = f.Q() - 1
				}
			}
			blocks := fieldmat.SplitRows(x, sh.k)
			want := naiveEncode(f, code.Generator(), blocks, sh.n)
			got, err := code.EncodeMatrix(x, nil)
			if err != nil {
				t.Fatalf("(%d,%d) trial %d: %v", sh.n, sh.k, trial, err)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("(%d,%d) trial %d: shard %d diverges from naive reference",
						sh.n, sh.k, trial, i)
				}
			}
		}
	}
}

// TestNTTEncodeDecodeRoundTrip closes the loop on the fast path: encode,
// compute per-shard results, decode from assorted K-subsets (and a shuffled
// ordering), recover the direct product.
func TestNTTEncodeDecodeRoundTrip(t *testing.T) {
	f := field.NTTFriendly()
	rng := rand.New(rand.NewSource(92))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !code.NTTAccelerated() {
		t.Fatal("expected the fast path")
	}
	x := fieldmat.Rand(f, rng, 27, 8)
	w := f.RandVec(rng, 8)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, w)
	results := make([][]field.Elem, 12)
	for i, s := range shards {
		results[i] = fieldmat.MatVec(f, s, w)
	}
	for _, idx := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 8, 9, 10, 11},
		{0, 2, 4, 6, 8, 9, 10, 11, 1},
		{11, 0, 9, 2, 7, 4, 5, 6, 3},
	} {
		res := make([][]field.Elem, len(idx))
		for r, i := range idx {
			res[r] = results[i]
		}
		got, err := code.DecodeConcat(idx, res)
		if err != nil {
			t.Fatalf("decode %v: %v", idx, err)
		}
		if !field.EqualVec(got, want) {
			t.Fatalf("decode %v did not recover X·w", idx)
		}
	}
}

// TestEncodeMatrixZeroCopyViews checks the fast path's aliasing contract:
// the first K shards share x's backing storage, byte for byte.
func TestEncodeMatrixZeroCopyViews(t *testing.T) {
	f := field.NTTFriendly()
	rng := rand.New(rand.NewSource(93))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 18, 4)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	width := (x.Rows / 9) * x.Cols
	for i := 0; i < 9; i++ {
		if &shards[i].Data[0] != &x.Data[i*width] {
			t.Fatalf("shard %d does not view x's block %d", i, i)
		}
	}
	for i := 9; i < 12; i++ {
		if len(shards[i].Data) != width {
			t.Fatalf("parity shard %d has width %d, want %d", i, len(shards[i].Data), width)
		}
	}
}

// TestEncodeMatrixIntoAllocs pins the steady-state allocation count of the
// Into form to zero on both paths — the satellite fix for the seed
// encoder's 44 allocs/op (SplitRows copies plus per-shard matrices).
func TestEncodeMatrixIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, tc := range []struct {
		name string
		f    *field.Field
	}{
		{"ntt path", field.NTTFriendly()},
		{"lagrange path", field.Default()},
	} {
		code, err := New(tc.f, 12, 9, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := fieldmat.Rand(tc.f, rng, 36, 7)
		shards := make([]*fieldmat.Matrix, 12)
		if err := code.EncodeMatrixInto(shards, x, nil); err != nil { // warm: allocate shard storage
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if err := code.EncodeMatrixInto(shards, x, nil); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: EncodeMatrixInto allocates %.1f/op in steady state, want 0", tc.name, avg)
		}
	}
}

// TestDecodeIntoAllocs pins the steady-state decode to zero allocations on
// plan-cache hits (the round loop's common case).
func TestDecodeIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	f := field.NTTFriendly()
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 27, 6)
	w := f.RandVec(rng, 6)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 2, 3, 5, 6, 7, 9, 10, 11}
	res := make([][]field.Elem, len(idx))
	for r, i := range idx {
		res[r] = fieldmat.MatVec(f, shards[i], w)
	}
	dst := make([][]field.Elem, 9)
	for j := range dst {
		dst[j] = make([]field.Elem, 3)
	}
	flat := make([]field.Elem, 27)
	if err := code.DecodeVectorsInto(dst, idx, res); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := code.DecodeVectorsInto(dst, idx, res); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeVectorsInto allocates %.1f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := code.DecodeConcatInto(flat, idx, res); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeConcatInto allocates %.1f/op in steady state, want 0", avg)
	}
	want := fieldmat.MatVec(f, x, w)
	if !field.EqualVec(flat, want) {
		t.Fatal("DecodeConcatInto result diverges")
	}
}

// lagrangeRef is the paper-modulus reference kept in test code: the
// seed's layout (α_i = i+1, β = α[:K]) with generator entries ℓ_j(α_i)
// computed from the product formula one Fermat inversion at a time — no
// batched weights, no decode plans, no shared code with the codec.
func lagrangeRef(f *field.Field, n, k int) *fieldmat.Matrix {
	gen := fieldmat.NewMatrix(k, n)
	for i := 0; i < n; i++ {
		a := field.Elem(i + 1)
		for j := 0; j < k; j++ {
			b := field.Elem(j + 1)
			w := field.Elem(1)
			for m := 0; m < k; m++ {
				if m != j {
					bm := field.Elem(m + 1)
					w = f.Mul(w, f.Div(f.Sub(a, bm), f.Sub(b, bm)))
				}
			}
			gen.Set(j, i, w)
		}
	}
	return gen
}

// TestLagrangePathUnchangedByRefactor pins the paper modulus at the paper
// shape to the seed's Lagrange layout, bit for bit: the points, the
// generator, every shard (against the naive encoder over the reference
// generator) and decodes from shuffled survivor sets (against the
// Gauss–Jordan solve over the reference generator).
func TestLagrangePathUnchangedByRefactor(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(96))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if code.NTTAccelerated() {
		t.Fatal("paper modulus at (12,9) must take the Lagrange layout")
	}
	for i, a := range code.Alphas() {
		if a != field.Elem(i+1) {
			t.Fatalf("alpha %d = %d, the Lagrange layout puts it at %d", i, a, i+1)
		}
	}
	ref := lagrangeRef(f, 12, 9)
	if !code.Generator().Equal(ref) {
		t.Fatal("generator diverges from the reference Lagrange generator")
	}
	x := fieldmat.Rand(f, rng, 36, 11)
	want := naiveEncode(f, ref, fieldmat.SplitRows(x, 9), 12)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !shards[i].Equal(want[i]) {
			t.Fatalf("shard %d diverges from the reference encoder", i)
		}
	}
	w := f.RandVec(rng, 11)
	for _, idx := range [][]int{
		{11, 0, 7, 3, 5, 2, 9, 1, 4},
		{3, 4, 5, 6, 7, 8, 9, 10, 11},
		{10, 8, 6, 4, 2, 0, 1, 3, 5},
	} {
		a := fieldmat.NewMatrix(9, 9)
		rmat := fieldmat.NewMatrix(9, x.Rows/9)
		res := make([][]field.Elem, len(idx))
		for r, i := range idx {
			res[r] = fieldmat.MatVec(f, want[i], w)
			copy(rmat.Row(r), res[r])
			for j := 0; j < 9; j++ {
				a.Set(r, j, ref.At(j, i))
			}
		}
		y, err := fieldmat.SolveMatrix(f, a, rmat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := code.DecodeConcat(idx, res)
		if err != nil {
			t.Fatal(err)
		}
		if !field.EqualVec(got, y.Data) {
			t.Fatalf("decode %v diverges from the reference solve", idx)
		}
	}
}
