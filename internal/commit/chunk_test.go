package commit

// Tests of the chunked output tree (wire v3): chunk boundaries, tampering
// inside an opened chunk, the published digests that must not move, and
// the allocation contract of the hash helpers.

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

func TestOutputChunkBoundaries(t *testing.T) {
	cases := []struct {
		name           string
		build          func() (*Issuer, Round)
		outLen, chunks int
	}{
		// 300 rows over K = 3: b = 100 entries = one full chunk + 36.
		{"short final chunk", func() (*Issuer, Round) { return honestMatVec(31, 300, 8, 3, 5, 1) }, 100, 2},
		// b = 6, batch 2: 12 entries, one leaf, empty authentication path.
		{"single chunk", func() (*Issuer, Round) { return honestMatVec(32, 18, 7, 3, 5, 2) }, 12, 1},
		// Gram round: b = 20, a b² = 400-entry output = 6 full chunks + 16.
		{"gram b squared", func() (*Issuer, Round) { return honestGram(33, 40, 6, 2, 4) }, 400, 7},
	}
	for _, c := range cases {
		is, rd := c.build()
		rec := mustIssue(t, is, rd)
		if err := rec.Verify(); err != nil {
			t.Fatalf("%s: honest receipt rejected: %v", c.name, err)
		}
		g := rec.Groups[0]
		sawShort := false
		for i, w := range g.Workers {
			out := rd.Workers[i].Output
			if w.OutLen != c.outLen || len(out) != c.outLen {
				t.Fatalf("%s: worker %d commits %d entries, want %d", c.name, w.ID, w.OutLen, c.outLen)
			}
			if got := outputChunks(w.OutLen); got != c.chunks {
				t.Fatalf("%s: %d chunks, want %d", c.name, got, c.chunks)
			}
			// The shipped worker-side root, the issuer's rebuilt root and
			// every chunk's authentication path agree.
			tree := outputTree(out)
			if tree.Root() != w.Root || string(OutputRoot(out)) != string(w.Root[:]) {
				t.Fatalf("%s: worker %d root disagrees with its output tree", c.name, w.ID)
			}
			for idx := 0; idx < c.chunks; idx++ {
				if !VerifyPath(w.Root, c.chunks, idx, OutputLeaf(idx, outputChunk(out, idx)), tree.Path(idx)) {
					t.Fatalf("%s: worker %d chunk %d path rejected", c.name, w.ID, idx)
				}
			}
			for _, lo := range w.Leaves {
				want := min(OutputChunk, c.outLen-lo.Index*OutputChunk)
				if len(lo.Values) != want {
					t.Fatalf("%s: chunk %d opens %d entries, want %d", c.name, lo.Index, len(lo.Values), want)
				}
				if !field.EqualVec(lo.Values, outputChunk(out, lo.Index)) {
					t.Fatalf("%s: chunk %d opening is not the worker's output", c.name, lo.Index)
				}
				if c.chunks == 1 && (lo.Index != 0 || len(lo.Path) != 0) {
					t.Fatalf("%s: single-leaf tree opened chunk %d with a %d-hash path", c.name, lo.Index, len(lo.Path))
				}
				sawShort = sawShort || want < OutputChunk
			}
		}
		if c.outLen%OutputChunk != 0 && !sawShort {
			t.Fatalf("%s: no opening landed on the short final chunk", c.name)
		}
	}
}

func TestChunkOpeningTamper(t *testing.T) {
	f := field.Default()
	mutations := []struct {
		name, want string
		mut        func(l *LeafOpening, chunks int)
	}{
		{"chunk one entry long", "entries", func(l *LeafOpening, _ int) { l.Values = append(l.Values, 0) }},
		{"chunk one entry short", "entries", func(l *LeafOpening, _ int) { l.Values = l.Values[:len(l.Values)-1] }},
		{"chunk index out of range", "transcript demands", func(l *LeafOpening, chunks int) { l.Index = chunks }},
		{"flipped entry inside the chunk", "Merkle authentication", func(l *LeafOpening, _ int) {
			mid := len(l.Values) / 2
			l.Values[mid] = f.Add(l.Values[mid], 1)
		}},
	}
	for _, m := range mutations {
		is, rd := honestMatVec(34, 300, 8, 3, 5, 1)
		rec := mustIssue(t, is, rd)
		w := &rec.Groups[0].Workers[1]
		m.mut(&w.Leaves[2], outputChunks(w.OutLen))
		err := rec.Verify()
		var bwe *BadWorkersError
		if err == nil || errors.As(err, &bwe) || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: want a structural rejection mentioning %q, got %v", m.name, m.want, err)
		}
	}
	// Out-of-range chunk indices never authenticate, whatever the path.
	out := make([]field.Elem, 100)
	tree := outputTree(out)
	leaf := OutputLeaf(1, outputChunk(out, 1))
	for _, idx := range []int{-1, 2, 3} {
		if VerifyPath(tree.Root(), 2, idx, leaf, tree.Path(1)) {
			t.Errorf("chunk index %d of a 2-chunk tree authenticated", idx)
		}
	}
}

// TestDigestsStable pins the matrix-commitment bytes: column leaves, the
// digest root over them and the folded fingerprint are byte-identical to
// the values published before output leaves were chunked and the hashing
// was rewritten, so digests tenants already pinned stay valid. The 300-row
// column streams through the hasher; the 5-row matrix's columns fit one
// hash block.
func TestDigestsStable(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(2024))
	x := fieldmat.Rand(f, rng, 37, 11)
	col := f.RandVec(rng, 300)
	y := fieldmat.Rand(f, rng, 5, 3)

	leaf := ColumnLeaf(7, col)
	dx := CommitMatrix(f, x).Digest()
	dy := CommitMatrix(f, y).Digest()
	for _, c := range []struct{ name, got, want string }{
		{"column leaf", hex.EncodeToString(leaf[:]), "5d88bfac8e6519f5eb60d63c6241746e3095d47956a768cf3d5f06889ddb707e"},
		{"37x11 digest root", hex.EncodeToString(dx.Root[:]), "2eaabb933fd6d261b5373d7854ab627ab470f744cbc2a753ba8dae2f45b7c5dc"},
		{"5x3 digest root", hex.EncodeToString(dy.Root[:]), "61fc80799e606f3126b02cd24ca6bd12fce1448aca47cf23c734355d37413ecd"},
		{"folded digests", FoldDigests([]Digest{dx, dy}), "6afbe6f87069fd01ed96ff6ddd0e6e1aa3b9b6252e17bb0f06193e2b7caf5623"},
	} {
		if c.got != c.want {
			t.Errorf("%s moved: got %s, want %s", c.name, c.got, c.want)
		}
	}
}

var (
	sinkHash  Hash
	sinkBlock [HashSize]byte
)

// TestHashHelpersDoNotAllocate is the dynamic half of the //avcc:noalloc
// annotations on the hash helpers (avcclint checks the static half).
func TestHashHelpersDoNotAllocate(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(36))
	long := f.RandVec(rng, 2880) // a 2880-row column: streamed
	chunk := long[:OutputChunk]  // one output chunk: a single Sum256
	var l, r Hash
	tr := NewTranscript("alloc-test")
	cases := []struct {
		name string
		fn   func()
	}{
		{"hashNode", func() { sinkHash = hashNode(l, r) }},
		{"column leaf", func() { sinkHash = ColumnLeaf(3, long) }},
		{"output leaf", func() { sinkHash = OutputLeaf(1, chunk) }},
		{"transcript squeeze", func() { sinkBlock = tr.block(7) }},
		{"transcript absorb elems", func() { tr.AbsorbElems("output", long) }},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(50, c.fn); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, a)
		}
	}
}

// TestReceiptAllocBudget bounds the allocations of issuing and verifying a
// receipt at the serving shape (2880x96, (12,9), batch 1). Per-entry output
// leaves and a fresh hasher per hash cost ~14,500 here; chunked leaves and
// stack-buffer hashing cost a few hundred.
func TestReceiptAllocBudget(t *testing.T) {
	const budget = 2500
	is, rd := honestMatVec(35, 2880, 96, 9, 12, 1)
	allocs := testing.AllocsPerRun(3, func() {
		rec, err := is.Issue(rd)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Issue+Verify at 2880x96: %v allocs, budget %d", allocs, budget)
	}
}
