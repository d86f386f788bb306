package commit

import (
	"encoding/binary"
	"fmt"

	"repro/internal/field"
)

// Deterministic binary codec for receipts. The encoding is canonical —
// DecodeReceipt rejects non-minimal varints and trailing bytes, so
// decode∘encode is the identity ON BYTES, which is what the fuzz round-trip
// test pins down. HTTP transports carry base64 of this encoding.
//
// Layout (all integers uvarint, all hashes raw 32 bytes):
//
//	magic "AVR3"
//	scheme, roundKey (length-prefixed strings)
//	iter, batch, gram
//	inputs (length-prefixed elem vector)
//	group count, then per group:
//	  digest{root, rows, cols, ext, q}, n, k, blockRows
//	  outputs, workers{id, alpha, outLen, root, aggregates,
//	    leaves{chunk index, chunk values, path}},
//	  u, v, u2, v2, columns
//
// Version 2 ("AVR2") added the code length n; version 3 ("AVR3") opens
// worker outputs by OutputChunk-entry chunk instead of by entry. Older
// blobs are rejected with an explicit version error rather than misparsed.
var codecMagic = [4]byte{'A', 'V', 'R', '3'}

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) raw(b []byte) { e.buf = append(e.buf, b...) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.raw([]byte(s))
}

func (e *encoder) elems(vs []field.Elem) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.uvarint(uint64(v))
	}
}

func (e *encoder) hashes(hs []Hash) {
	e.uvarint(uint64(len(hs)))
	for _, h := range hs {
		e.raw(h[:])
	}
}

func (e *encoder) elemMat(vs [][]field.Elem) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.elems(v)
	}
}

// EncodeReceipt serialises r into the canonical byte form.
func EncodeReceipt(r *Receipt) []byte {
	e := &encoder{buf: make([]byte, 0, 4096)}
	e.raw(codecMagic[:])
	e.str(r.Scheme)
	e.str(r.RoundKey)
	e.uvarint(uint64(r.Iter))
	e.uvarint(uint64(r.Batch))
	gram := uint64(0)
	if r.Gram {
		gram = 1
	}
	e.uvarint(gram)
	e.elems(r.Inputs)
	e.uvarint(uint64(len(r.Groups)))
	for _, g := range r.Groups {
		e.raw(g.Digest.Root[:])
		e.uvarint(uint64(g.Digest.Rows))
		e.uvarint(uint64(g.Digest.Cols))
		e.uvarint(uint64(g.Digest.Ext))
		e.uvarint(g.Digest.Q)
		e.uvarint(uint64(g.N))
		e.uvarint(uint64(g.K))
		e.uvarint(uint64(g.BlockRows))
		e.elemMat(g.Outputs)
		e.uvarint(uint64(len(g.Workers)))
		for _, w := range g.Workers {
			e.uvarint(uint64(w.ID))
			e.uvarint(uint64(w.Alpha))
			e.uvarint(uint64(w.OutLen))
			e.raw(w.Root[:])
			e.elems(w.Aggregates)
			e.uvarint(uint64(len(w.Leaves)))
			for _, l := range w.Leaves {
				e.uvarint(uint64(l.Index))
				e.elems(l.Values)
				e.hashes(l.Path)
			}
		}
		e.elemMat(g.U)
		e.elemMat(g.V)
		e.elemMat(g.U2)
		e.elemMat(g.V2)
		e.uvarint(uint64(len(g.Columns)))
		for _, c := range g.Columns {
			e.uvarint(uint64(c.Index))
			e.elems(c.Values)
			e.hashes(c.Path)
		}
	}
	return e.buf
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("commit: truncated or overlong varint at offset %d", d.off)
	}
	// Canonical form only: the most significant group must be non-zero,
	// otherwise re-encoding would shrink the bytes and the round-trip
	// identity breaks.
	if n > 1 && d.buf[d.off+n-1] == 0 {
		return 0, fmt.Errorf("commit: non-minimal varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// count reads a length that must plausibly fit in the remaining buffer
// (each counted item occupies at least unit bytes) — the guard that keeps
// fuzzed inputs from forcing huge allocations.
func (d *decoder) count(unit int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()/unit) {
		return 0, fmt.Errorf("commit: length %d exceeds remaining input", v)
	}
	return int(v), nil
}

func (d *decoder) intVal() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, fmt.Errorf("commit: integer %d overflows int", v)
	}
	return int(v), nil
}

func (d *decoder) raw(n int) ([]byte, error) {
	if d.remaining() < n {
		return nil, fmt.Errorf("commit: truncated input at offset %d", d.off)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) hash() (Hash, error) {
	var h Hash
	b, err := d.raw(HashSize)
	if err != nil {
		return h, err
	}
	copy(h[:], b)
	return h, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.count(1)
	if err != nil {
		return "", err
	}
	b, err := d.raw(n)
	return string(b), err
}

func (d *decoder) elems() ([]field.Elem, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]field.Elem, n)
	for i := range out {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = field.Elem(v)
	}
	return out, nil
}

func (d *decoder) hashes() ([]Hash, error) {
	n, err := d.count(HashSize)
	if err != nil {
		return nil, err
	}
	out := make([]Hash, n)
	for i := range out {
		if out[i], err = d.hash(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *decoder) elemMat() ([][]field.Elem, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out := make([][]field.Elem, n)
	for i := range out {
		if out[i], err = d.elems(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeReceipt parses the canonical byte form, rejecting malformed,
// non-minimal, and trailing-garbage inputs. It checks structure only;
// semantic validity is Verify's job.
func DecodeReceipt(data []byte) (*Receipt, error) {
	d := &decoder{buf: data}
	magic, err := d.raw(len(codecMagic))
	if err == nil {
		switch string(magic) {
		case "AVR1":
			return nil, fmt.Errorf("commit: receipt wire format v1 (AVR1) is no longer accepted: v3 (AVR3) carries the code length N and chunked output openings; re-issue the receipt")
		case "AVR2":
			return nil, fmt.Errorf("commit: receipt wire format v2 (AVR2) is no longer accepted: v3 (AVR3) opens worker outputs by %d-entry chunk; re-issue the receipt", OutputChunk)
		}
	}
	if err != nil || string(magic) != string(codecMagic[:]) {
		return nil, fmt.Errorf("commit: not a receipt (bad magic)")
	}
	r := &Receipt{}
	if r.Scheme, err = d.str(); err != nil {
		return nil, err
	}
	if r.RoundKey, err = d.str(); err != nil {
		return nil, err
	}
	if r.Iter, err = d.intVal(); err != nil {
		return nil, err
	}
	if r.Batch, err = d.intVal(); err != nil {
		return nil, err
	}
	gram, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if gram > 1 {
		return nil, fmt.Errorf("commit: gram flag %d", gram)
	}
	r.Gram = gram == 1
	if r.Inputs, err = d.elems(); err != nil {
		return nil, err
	}
	groups, err := d.count(1)
	if err != nil {
		return nil, err
	}
	r.Groups = make([]*GroupReceipt, groups)
	for gi := range r.Groups {
		g := &GroupReceipt{}
		if g.Digest.Root, err = d.hash(); err != nil {
			return nil, err
		}
		if g.Digest.Rows, err = d.intVal(); err != nil {
			return nil, err
		}
		if g.Digest.Cols, err = d.intVal(); err != nil {
			return nil, err
		}
		if g.Digest.Ext, err = d.intVal(); err != nil {
			return nil, err
		}
		if g.Digest.Q, err = d.uvarint(); err != nil {
			return nil, err
		}
		if g.N, err = d.intVal(); err != nil {
			return nil, err
		}
		if g.K, err = d.intVal(); err != nil {
			return nil, err
		}
		if g.BlockRows, err = d.intVal(); err != nil {
			return nil, err
		}
		if g.Outputs, err = d.elemMat(); err != nil {
			return nil, err
		}
		workers, err := d.count(1)
		if err != nil {
			return nil, err
		}
		g.Workers = make([]WorkerOpening, workers)
		for wi := range g.Workers {
			w := &g.Workers[wi]
			if w.ID, err = d.intVal(); err != nil {
				return nil, err
			}
			alpha, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			w.Alpha = field.Elem(alpha)
			if w.OutLen, err = d.intVal(); err != nil {
				return nil, err
			}
			if w.Root, err = d.hash(); err != nil {
				return nil, err
			}
			if w.Aggregates, err = d.elems(); err != nil {
				return nil, err
			}
			leaves, err := d.count(1)
			if err != nil {
				return nil, err
			}
			w.Leaves = make([]LeafOpening, leaves)
			for li := range w.Leaves {
				l := &w.Leaves[li]
				if l.Index, err = d.intVal(); err != nil {
					return nil, err
				}
				if l.Values, err = d.elems(); err != nil {
					return nil, err
				}
				if l.Path, err = d.hashes(); err != nil {
					return nil, err
				}
			}
		}
		if g.U, err = d.elemMat(); err != nil {
			return nil, err
		}
		if g.V, err = d.elemMat(); err != nil {
			return nil, err
		}
		if g.U2, err = d.elemMat(); err != nil {
			return nil, err
		}
		if g.V2, err = d.elemMat(); err != nil {
			return nil, err
		}
		columns, err := d.count(1)
		if err != nil {
			return nil, err
		}
		g.Columns = make([]ColumnOpening, columns)
		for ci := range g.Columns {
			c := &g.Columns[ci]
			if c.Index, err = d.intVal(); err != nil {
				return nil, err
			}
			if c.Values, err = d.elems(); err != nil {
				return nil, err
			}
			if c.Path, err = d.hashes(); err != nil {
				return nil, err
			}
		}
		r.Groups[gi] = g
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("commit: %d trailing bytes after receipt", d.remaining())
	}
	return r, nil
}
