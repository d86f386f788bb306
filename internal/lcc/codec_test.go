package lcc

// MDS-code coverage — the T = 0, deg f = 1 special case of Section IV-A:
// systematic shards, decode from any K of N in any order, linearity, the
// invertibility of every K-column generator submatrix, and the memoized
// decode plans against a Gauss–Jordan solve reference.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

func TestNewRejectsBadParams(t *testing.T) {
	for _, c := range []struct{ n, k int }{{2, 3}, {0, 0}, {5, 0}, {-1, -1}} {
		if _, err := New(f, c.n, c.k, 0, 1); err == nil {
			t.Errorf("New(%d,%d) accepted invalid params", c.n, c.k)
		}
	}
	small := field.MustNew(7)
	if _, err := New(small, 7, 2, 0, 1); err == nil {
		t.Error("New accepted N >= q")
	}
}

func TestSystematic(t *testing.T) {
	// The first K shards must equal the data blocks (X̃_i = X_i, i <= K).
	rng := rand.New(rand.NewSource(70))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 18, 5)
	blocks := fieldmat.SplitRows(x, 9)
	shards, err := code.EncodeBlocks(blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 12 {
		t.Fatalf("got %d shards", len(shards))
	}
	for i := 0; i < 9; i++ {
		if !shards[i].Equal(blocks[i]) {
			t.Fatalf("shard %d is not systematic", i)
		}
	}
}

func TestFig1Example(t *testing.T) {
	// The paper's Fig. 1: (3,2) code, worker 1 straggles, workers 2 and 3
	// suffice to recover X·b.
	rng := rand.New(rand.NewSource(71))
	code, err := New(f, 3, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 4, 6)
	b := f.RandVec(rng, 6)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, b)
	// Workers compute X̃_i·b; only workers 1 and 2 (0-indexed) return.
	res := [][]field.Elem{
		fieldmat.MatVec(f, shards[1], b),
		fieldmat.MatVec(f, shards[2], b),
	}
	got, err := code.DecodeConcat([]int{1, 2}, res)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("Fig.1 decode did not recover X·b")
	}
}

func TestAnyKofNDecodes(t *testing.T) {
	// The defining MDS property, exhaustively for (5,3): every 3-subset of
	// workers decodes correctly.
	rng := rand.New(rand.NewSource(72))
	code, err := New(f, 5, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 6, 4)
	w := f.RandVec(rng, 4)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, w)
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			for c := b + 1; c < 5; c++ {
				idx := []int{a, b, c}
				res := make([][]field.Elem, 3)
				for r, i := range idx {
					res[r] = fieldmat.MatVec(f, shards[i], w)
				}
				got, err := code.DecodeConcat(idx, res)
				if err != nil {
					t.Fatalf("subset %v: %v", idx, err)
				}
				if !field.EqualVec(got, want) {
					t.Fatalf("subset %v decoded wrong result", idx)
				}
			}
		}
	}
}

func TestDecodeOrderInvariance(t *testing.T) {
	// Results arriving in any order must decode identically — the master
	// consumes workers in verification-completion order.
	rng := rand.New(rand.NewSource(73))
	code, _ := New(f, 6, 4, 0, 1)
	x := fieldmat.Rand(f, rng, 8, 3)
	w := f.RandVec(rng, 3)
	shards, _ := code.EncodeMatrix(x, nil)
	want := fieldmat.MatVec(f, x, w)
	idx := []int{5, 0, 3, 2} // deliberately shuffled
	res := make([][]field.Elem, 4)
	for r, i := range idx {
		res[r] = fieldmat.MatVec(f, shards[i], w)
	}
	got, err := code.DecodeConcat(idx, res)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("shuffled decode failed")
	}
}

func TestDecodeTransposedRound(t *testing.T) {
	// Round 2 of logreg: encode Xᵀ row blocks, workers compute X̃'_i·e,
	// decode g = Xᵀe.
	rng := rand.New(rand.NewSource(74))
	code, _ := New(f, 12, 9, 0, 1)
	x := fieldmat.Rand(f, rng, 18, 27)
	xt := x.Transpose() // 27×18
	e := f.RandVec(rng, 18)
	shards, err := code.EncodeMatrix(xt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, xt, e)
	idx := []int{0, 2, 3, 4, 6, 7, 8, 10, 11}
	res := make([][]field.Elem, len(idx))
	for r, i := range idx {
		res[r] = fieldmat.MatVec(f, shards[i], e)
	}
	got, err := code.DecodeConcat(idx, res)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("transposed-round decode failed")
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	code, _ := New(f, 4, 2, 0, 1)
	good := [][]field.Elem{{1, 2}, {3, 4}}
	cases := []struct {
		name    string
		workers []int
		res     [][]field.Elem
	}{
		{"too few", []int{0}, good[:1]},
		{"duplicate worker", []int{1, 1}, good},
		{"out of range", []int{0, 7}, good},
		{"negative", []int{-1, 0}, good},
		{"ragged", []int{0, 1}, [][]field.Elem{{1, 2}, {3}}},
	}
	for _, c := range cases {
		if _, err := code.DecodeVectors(c.workers, c.res); err == nil {
			t.Errorf("%s: decode accepted bad input", c.name)
		}
	}
}

func TestEncodeMatrixIndivisible(t *testing.T) {
	code, _ := New(f, 4, 3, 0, 1)
	if _, err := code.EncodeMatrix(fieldmat.NewMatrix(10, 2), nil); err == nil {
		t.Fatal("EncodeMatrix accepted indivisible rows")
	}
}

func TestEncodeBlocksShapeChecks(t *testing.T) {
	code, _ := New(f, 4, 2, 0, 1)
	if _, err := code.EncodeBlocks([]*fieldmat.Matrix{fieldmat.NewMatrix(2, 2)}, nil); err == nil {
		t.Fatal("accepted wrong block count")
	}
	if _, err := code.EncodeBlocks([]*fieldmat.Matrix{
		fieldmat.NewMatrix(2, 2), fieldmat.NewMatrix(3, 2),
	}, nil); err == nil {
		t.Fatal("accepted unequal block shapes")
	}
}

func TestEncodeLinearity(t *testing.T) {
	// Encoding is linear: encode(X + Y) = encode(X) + encode(Y), shard-wise.
	// This is what lets workers compute on coded data at all.
	rng := rand.New(rand.NewSource(75))
	code, _ := New(f, 5, 3, 0, 1)
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := fieldmat.Rand(f, r, 6, 3)
		y := fieldmat.Rand(f, r, 6, 3)
		sum := x.Clone()
		sum.AddInPlace(f, y)
		sx, _ := code.EncodeMatrix(x, nil)
		sy, _ := code.EncodeMatrix(y, nil)
		ss, _ := code.EncodeMatrix(sum, nil)
		for i := range ss {
			both := sx[i].Clone()
			both.AddInPlace(f, sy[i])
			if !ss[i].Equal(both) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorAllKSubmatricesInvertible(t *testing.T) {
	// Spot-check the MDS property at the paper's (12,9) configuration with
	// random K-subsets (exhaustive is 220 subsets for (12,9); we do all of
	// them — it is cheap).
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := code.Generator()
	var rec func(start int, chosen []int)
	checked := 0
	rec = func(start int, chosen []int) {
		if len(chosen) == 9 {
			sub := fieldmat.NewMatrix(9, 9)
			for r, w := range chosen {
				for j := 0; j < 9; j++ {
					sub.Set(r, j, gen.At(j, w))
				}
			}
			if _, err := fieldmat.Inverse(f, sub); err != nil {
				t.Fatalf("submatrix %v singular", chosen)
			}
			checked++
			return
		}
		for i := start; i < 12; i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, nil)
	if checked != 220 {
		t.Fatalf("checked %d subsets, want 220", checked)
	}
}

// decodeRef is the seed decoder: build the K×K generator submatrix selected
// by the workers and solve A·Y = R by Gauss–Jordan. The interpolation-plan
// decoder must stay bit-exact with it for every worker subset.
func decodeRef(t *testing.T, code *Code, workers []int, results [][]field.Elem) [][]field.Elem {
	t.Helper()
	k := code.K()
	dim := len(results[0])
	a := fieldmat.NewMatrix(k, k)
	rmat := fieldmat.NewMatrix(k, dim)
	gen := code.Generator()
	for r, w := range workers {
		for j := 0; j < k; j++ {
			a.Set(r, j, gen.At(j, w))
		}
		copy(rmat.Row(r), results[r])
	}
	y, err := fieldmat.SolveMatrix(code.Field(), a, rmat)
	if err != nil {
		t.Fatalf("reference decode singular: %v", err)
	}
	out := make([][]field.Elem, k)
	for j := 0; j < k; j++ {
		out[j] = field.CopyVec(y.Row(j))
	}
	return out
}

// TestDecodePlanMatchesSolveReference checks the cached interpolation-plan
// decode against the linear-solve reference over every 9-subset of the
// paper's (12,9) code — all 220 survivor sets, repeated to exercise cache
// hits, plus permuted worker orderings.
func TestDecodePlanMatchesSolveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 36, 7)
	w := f.RandVec(rng, 7)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]field.Elem, 12)
	for i, sh := range shards {
		results[i] = fieldmat.MatVec(f, sh, w)
	}
	check := func(chosen []int) {
		res := make([][]field.Elem, len(chosen))
		for r, i := range chosen {
			res[r] = results[i]
		}
		want := decodeRef(t, code, chosen, res)
		for pass := 0; pass < 2; pass++ { // second pass hits the plan cache
			got, err := code.DecodeVectors(chosen, res)
			if err != nil {
				t.Fatalf("decode %v: %v", chosen, err)
			}
			for j := range want {
				if !field.EqualVec(got[j], want[j]) {
					t.Fatalf("decode %v pass %d: block %d diverges from solve reference", chosen, pass, j)
				}
			}
		}
	}
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) == 9 {
			check(append([]int(nil), chosen...))
			return
		}
		for i := start; i < 12; i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, nil)
	// Order matters to the plan keying: a shuffled worker list must still
	// decode correctly (weights align with the shuffled results).
	perm := []int{8, 2, 11, 0, 5, 9, 1, 4, 7}
	check(perm)
}

// TestDecodePlanCacheSurvivesManyWorkerSets cycles through more survivor
// sets than the cache cap to exercise the reset path.
func TestDecodePlanCacheSurvivesManyWorkerSets(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	code, err := New(f, 16, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 9, 4)
	w := f.RandVec(rng, 4)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, w)
	results := make([][]field.Elem, 16)
	for i, sh := range shards {
		results[i] = fieldmat.MatVec(f, sh, w)
	}
	sets := 0
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			for c := b + 1; c < 16; c++ {
				chosen := []int{a, b, c}
				res := [][]field.Elem{results[a], results[b], results[c]}
				got, err := code.DecodeConcat(chosen, res)
				if err != nil {
					t.Fatalf("decode %v: %v", chosen, err)
				}
				if !field.EqualVec(got, want) {
					t.Fatalf("decode %v wrong", chosen)
				}
				sets++
			}
		}
	}
	if sets != 560 { // 16 choose 3 — ~4.4x the 128-entry cache cap
		t.Fatalf("covered %d worker sets, want 560", sets)
	}
}

func BenchmarkEncode12x9(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	code, _ := New(f, 12, 9, 0, 1)
	x := fieldmat.Rand(f, rng, 900, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.EncodeMatrix(x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode12x9(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	code, _ := New(f, 12, 9, 0, 1)
	x := fieldmat.Rand(f, rng, 900, 120)
	w := f.RandVec(rng, 120)
	shards, _ := code.EncodeMatrix(x, nil)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	res := make([][]field.Elem, len(idx))
	for r, i := range idx {
		res[r] = fieldmat.MatVec(f, shards[i], w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.DecodeConcat(idx, res); err != nil {
			b.Fatal(err)
		}
	}
}
