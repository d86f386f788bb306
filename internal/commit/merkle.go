// Package commit is the committed-verification plane of the repository: a
// Merkle commitment over the master's data matrix (columns of a rate-1/2
// systematic Reed–Solomon row extension), Merkle commitments over each
// worker's coded output, a deterministic Fiat–Shamir transcript deriving
// challenge scalars from everything absorbed so far, and a serializable
// per-round Receipt a tenant can verify fully offline against nothing but
// the public matrix digest.
//
// The construction follows the DECS/LVCS shape of SNIPPETS.md §1 (SPRUCE):
// commit to an encoding of the data, derive random linear-combination
// challenges by hashing the commitments, open the combinations, and
// spot-check them against Merkle-authenticated leaves. See DESIGN.md §10
// for the exact mapping and the soundness bound.
package commit

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/field"
)

// HashSize is the byte length of every digest in this package (SHA-256).
const HashSize = sha256.Size

// Hash is one SHA-256 digest.
type Hash [HashSize]byte

// Leaf and interior nodes hash under distinct first bytes so an interior
// node can never be reinterpreted as a leaf (second-preimage hardening);
// leaves additionally carry a domain string ("col" for matrix columns,
// "out" for worker output chunks) and their index, so no leaf of one tree
// collides with a leaf of another.
const (
	leafTag = 0x00
	nodeTag = 0x01
)

// OutputChunk is the number of output entries one "out" leaf commits: a
// worker's output tree has ⌈OutLen/OutputChunk⌉ leaves, the last one short
// when OutputChunk does not divide OutLen. 64 entries are 512 bytes of
// leaf payload — one leaf hash per chunk instead of one per entry, as
// SPRUCE's DECS layout commits a whole symbol vector per leaf.
const OutputChunk = 64

// hashChunk is the size of the stack buffer sumElems hashes from: large
// enough that a full output chunk plus its leaf header is a single
// sha256.Sum256 call. Longer messages (matrix columns, long transcript
// absorbs) stream through one hasher, up to hashChunk bytes at a time.
const hashChunk = 8*OutputChunk + 64

// sumElems returns SHA-256(head ‖ le64(vs[0]) ‖ … ‖ le64(vs[len-1])): a
// header, then each field element as its canonical 8-byte little-endian
// word. Messages that fit in one hashChunk are a single sha256.Sum256 over
// a stack buffer; longer ones stream through one hasher, a chunk of
// elements at a time, so no byte copy of vs is ever materialised.
//
//avcc:noalloc
func sumElems(head []byte, vs []field.Elem) Hash {
	var buf [hashChunk]byte
	if len(head)+8*len(vs) <= len(buf) {
		n := copy(buf[:], head)
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[n:], uint64(v))
			n += 8
		}
		return sha256.Sum256(buf[:n])
	}
	h := sha256.New()
	h.Write(head)
	for len(vs) > 0 {
		m := min(len(vs), len(buf)/8)
		for i, v := range vs[:m] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:8*m])
		vs = vs[m:]
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// hashLeaf hashes leafTag ‖ uvarint(len(domain)) ‖ domain ‖ uvarint(index)
// ‖ values. Domains are this package's three-byte constants, well inside
// the header buffer.
//
//avcc:noalloc
func hashLeaf(domain string, index int, values []field.Elem) Hash {
	var head [32]byte
	head[0] = leafTag
	n := 1 + binary.PutUvarint(head[1:], uint64(len(domain)))
	n += copy(head[n:], domain)
	n += binary.PutUvarint(head[n:], uint64(index))
	return sumElems(head[:n], values)
}

//avcc:noalloc
func hashNode(l, r Hash) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = nodeTag
	copy(buf[1:], l[:])
	copy(buf[1+HashSize:], r[:])
	return sha256.Sum256(buf[:])
}

// ColumnLeaf hashes one committed matrix column (domain "col").
//
//avcc:noalloc
func ColumnLeaf(index int, values []field.Elem) Hash {
	return hashLeaf("col", index, values)
}

// OutputLeaf hashes chunk index of a worker's coded output (domain "out"):
// the entries [index·OutputChunk, min((index+1)·OutputChunk, OutLen)).
//
//avcc:noalloc
func OutputLeaf(index int, chunk []field.Elem) Hash {
	return hashLeaf("out", index, chunk)
}

// outputChunks is the leaf count of an outLen-entry output tree.
func outputChunks(outLen int) int { return (outLen + OutputChunk - 1) / OutputChunk }

// outputChunk returns chunk i of out (the last chunk may be short).
func outputChunk(out []field.Elem, i int) []field.Elem {
	lo := i * OutputChunk
	return out[lo:min(lo+OutputChunk, len(out))]
}

// Tree is a Merkle tree over a fixed leaf sequence. An odd node at any
// level is promoted unchanged to the next level (no self-pairing), so path
// verification needs the leaf count — which every consumer in this package
// carries alongside the root.
type Tree struct {
	// levels[0] are the leaf hashes; the last level is the single root.
	levels [][]Hash
}

// NewTree builds the tree over leaves and takes ownership of the slice:
// it becomes the tree's bottom level, so the caller must not modify it
// afterwards. It panics on zero leaves (nothing in this package commits to
// an empty sequence).
func NewTree(leaves []Hash) *Tree {
	if len(leaves) == 0 {
		panic("commit: merkle tree needs at least one leaf")
	}
	// Every level above the leaves lives in one backing array.
	upper := 0
	for cnt := len(leaves); cnt > 1; cnt = (cnt + 1) / 2 {
		upper += (cnt + 1) / 2
	}
	nodes := make([]Hash, upper)
	levels := [][]Hash{leaves}
	for cur := leaves; len(cur) > 1; {
		next := nodes[:(len(cur)+1)/2]
		nodes = nodes[len(next):]
		for i := 0; i+1 < len(cur); i += 2 {
			next[i/2] = hashNode(cur[i], cur[i+1])
		}
		if len(cur)%2 == 1 {
			next[len(next)-1] = cur[len(cur)-1]
		}
		levels = append(levels, next)
		cur = next
	}
	return &Tree{levels: levels}
}

// Root returns the tree root.
func (t *Tree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return len(t.levels[0]) }

// Path returns the authentication path for leaf i: the sibling hash at each
// level, bottom up, with levels where the node is an unpaired promotion
// simply skipped.
func (t *Tree) Path(i int) []Hash {
	var path []Hash
	for _, lvl := range t.levels[:len(t.levels)-1] {
		if sib := i ^ 1; sib < len(lvl) {
			path = append(path, lvl[sib])
		}
		i >>= 1
	}
	return path
}

// VerifyPath checks that leaf sits at index within a tree of the given leaf
// count whose root is root. The path must be exactly as long as the number
// of paired levels — extra or missing siblings fail.
func VerifyPath(root Hash, leaves, index int, leaf Hash, path []Hash) bool {
	if leaves < 1 || index < 0 || index >= leaves {
		return false
	}
	cur, pi := leaf, 0
	for cnt := leaves; cnt > 1; cnt = (cnt + 1) / 2 {
		if sib := index ^ 1; sib < cnt {
			if pi >= len(path) {
				return false
			}
			if index&1 == 0 {
				cur = hashNode(cur, path[pi])
			} else {
				cur = hashNode(path[pi], cur)
			}
			pi++
		}
		index >>= 1
	}
	return pi == len(path) && cur == root
}

// outputTree builds the Merkle tree a worker commits its coded output
// under: one "out"-domain leaf per OutputChunk entries.
func outputTree(out []field.Elem) *Tree {
	leaves := make([]Hash, outputChunks(len(out)))
	for i := range leaves {
		leaves[i] = OutputLeaf(i, outputChunk(out, i))
	}
	return NewTree(leaves)
}

// OutputRoot is the worker-side commitment to a coded output: the root of
// the output tree, as raw bytes ready for a wire message. Executors call
// this before the result leaves the worker.
func OutputRoot(out []field.Elem) []byte {
	if len(out) == 0 {
		return nil
	}
	r := outputTree(out).Root()
	return r[:]
}
