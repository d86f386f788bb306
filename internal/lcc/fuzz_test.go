package lcc

import (
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// FuzzCodeRoundTrip drives decode∘encode over random code shapes on both
// point layouts: (N, K, T), deg f ∈ {1, 2}, modulus ∈ {paper, QNTT}, and a
// random survivor subset of at least threshold size in random order. The
// decoded blocks must equal f applied to the raw data blocks directly —
// the matvec X_j·w for deg f = 1, the element-wise square for deg f = 2.
func FuzzCodeRoundTrip(f *testing.F) {
	f.Add(uint8(12), uint8(9), uint8(0), false, false, int64(1))
	f.Add(uint8(12), uint8(9), uint8(0), false, true, int64(2))
	f.Add(uint8(4), uint8(3), uint8(0), true, false, int64(3))
	f.Add(uint8(3), uint8(2), uint8(1), true, true, int64(4))
	f.Add(uint8(0), uint8(4), uint8(2), false, true, int64(5))
	f.Fuzz(func(t *testing.T, nExtra, kRaw, tRaw uint8, square, ntt bool, seed int64) {
		k := 1 + int(kRaw)%8
		tt := int(tRaw) % 3
		degF := 1
		if square {
			degF = 2
		}
		th := RecoveryThreshold(k, tt, degF)
		n := th + int(nExtra)%6
		fld := field.Default()
		if ntt {
			fld = field.NTTFriendly()
		}
		code, err := New(fld, n, k, tt, degF)
		if err != nil {
			t.Fatalf("New(%d,%d,%d,%d): %v", n, k, tt, degF, err)
		}
		if wantSubgroup := tt == 0 && (ntt || n <= 8); code.NTTAccelerated() != wantSubgroup {
			t.Fatalf("(%d,%d,%d) ntt=%v: subgroup layout %v, want %v", n, k, tt, ntt, code.NTTAccelerated(), wantSubgroup)
		}
		rng := rand.New(rand.NewSource(seed))
		per, cols := 1+rng.Intn(2), 1+rng.Intn(3)
		x := fieldmat.Rand(fld, rng, k*per, cols)
		blocks := fieldmat.SplitRows(x, k)
		shards, err := code.EncodeMatrix(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		w := fld.RandVec(rng, cols)
		apply := func(m *fieldmat.Matrix) []field.Elem {
			if !square {
				return fieldmat.MatVec(fld, m, w)
			}
			out := make([]field.Elem, len(m.Data))
			for i, v := range m.Data {
				out[i] = fld.Mul(v, v)
			}
			return out
		}
		survivors := rng.Perm(n)[:th+rng.Intn(n-th+1)]
		res := make([][]field.Elem, len(survivors))
		for r, i := range survivors {
			res[r] = apply(shards[i])
		}
		got, err := code.DecodeVectors(survivors, res)
		if err != nil {
			t.Fatalf("decode from %v: %v", survivors, err)
		}
		for j, b := range blocks {
			if !field.EqualVec(got[j], apply(b)) {
				t.Fatalf("(%d,%d,%d) degF=%d ntt=%v survivors %v: block %d diverges from f(X_j)",
					n, k, tt, degF, ntt, survivors, j)
			}
		}
	})
}
