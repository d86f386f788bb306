package logreg

import (
	"fmt"
	"math"
)

// sparseRows is a compressed-sparse-row (CSR) view of a row-major float
// feature block: row i's nonzero entries are val[off[i]:off[i+1]] at columns
// col[off[i]:off[i+1]], in ascending column order. It is the one evaluator
// behind Accuracy, CrossEntropy and the per-iteration trace of
// TrainDistributed, where it replaces a dense scan of a mostly-zero block
// (≈26% nonzero at paper scale) with ~8 bytes read per nonzero.
//
// Values are stored as float32. That is exact for the datasets this package
// trains on — integer features far below 2^24 — and newSparseRows rejects
// any value that does not survive the round trip, so a view never rounds.
//
// Results are bit-identical to the dense serial loop (dot += x_j·w_j over
// every column in order, then the per-row reduction in row order) whenever
// the weights are finite: every row dot starts at +0, and x·w for x = ±0 and
// finite w is ±0, which leaves any partial sum unchanged (s + ±0 = s for
// s ≠ 0, and +0 + ±0 = +0, so a sum that starts at +0 never becomes −0).
// Skipping the zeros therefore drops only terms that could not change the
// sum, and the nonzero terms are added in the dense loop's order. With an
// infinite or NaN weight the dense loop would turn 0·w into NaN, so the
// results may differ; TrainDistributed's weights are clamped to ±weightCap.
type sparseRows struct {
	rows int
	off  []int32 // len rows+1
	col  []int32
	val  []float32
}

// newSparseRows builds the view of the rows×cols block x in one
// count-then-fill pass.
func newSparseRows(x []float64, rows, cols int) (*sparseRows, error) {
	if rows < 0 || cols < 0 || (cols > 0 && rows > len(x)/cols) {
		return nil, fmt.Errorf("logreg: %d feature values are too few for a %dx%d block", len(x), rows, cols)
	}
	if cols > math.MaxInt32 {
		return nil, fmt.Errorf("logreg: %d columns exceed the sparse view's int32 indices", cols)
	}
	x = x[:rows*cols]
	nnz := 0
	for _, v := range x {
		if v != 0 {
			nnz++
		}
	}
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("logreg: %d nonzeros exceed the sparse view's int32 offsets", nnz)
	}
	s := &sparseRows{
		rows: rows,
		off:  make([]int32, rows+1),
		col:  make([]int32, 0, nnz),
		val:  make([]float32, 0, nnz),
	}
	for i := 0; i < rows; i++ {
		for j, v := range x[i*cols : (i+1)*cols] {
			if v == 0 {
				continue
			}
			v32 := float32(v)
			if float64(v32) != v {
				return nil, fmt.Errorf("logreg: feature (%d,%d) = %v is not exact in float32", i, j, v)
			}
			s.col = append(s.col, int32(j))
			s.val = append(s.val, v32)
		}
		s.off[i+1] = int32(len(s.col))
	}
	return s, nil
}

// prob returns h(x_i·w) for row i.
func (s *sparseRows) prob(i int, w []float64) float64 {
	lo, hi := s.off[i], s.off[i+1]
	col, val := s.col[lo:hi], s.val[lo:hi]
	var dot float64
	for k, v := range val {
		dot += float64(v) * w[col[k]]
	}
	return Sigmoid(dot)
}

// accuracy returns the 0/1 accuracy of w against labels y (0 for no rows).
func (s *sparseRows) accuracy(w, y []float64) float64 {
	if s.rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < s.rows; i++ {
		pred := 0.0
		if s.prob(i, w) >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(s.rows)
}

// crossEntropy returns the mean cross-entropy loss (eq. 4) of w against
// labels y, clamping probabilities away from {0,1} to keep it finite.
func (s *sparseRows) crossEntropy(w, y []float64) float64 {
	if s.rows == 0 {
		return 0
	}
	const eps = 1e-12
	var sum float64
	for i := 0; i < s.rows; i++ {
		p := s.prob(i, w)
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		sum += -y[i]*math.Log(p) - (1-y[i])*math.Log(1-p)
	}
	return sum / float64(s.rows)
}
