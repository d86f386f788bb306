package logreg

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dataset"
)

// denseAccuracy and denseCrossEntropy are the dense serial evaluation the
// sparse view replaced — one dot over every column of each row, rows in
// order — kept as the reference the view must match bit for bit.
func denseProb(w, row []float64) float64 {
	var dot float64
	for j, v := range row {
		dot += v * w[j]
	}
	return Sigmoid(dot)
}

func denseAccuracy(w, x, y []float64, rows, cols int) float64 {
	if rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < rows; i++ {
		pred := 0.0
		if denseProb(w, x[i*cols:(i+1)*cols]) >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(rows)
}

func denseCrossEntropy(w, x, y []float64, rows, cols int) float64 {
	if rows == 0 {
		return 0
	}
	const eps = 1e-12
	var sum float64
	for i := 0; i < rows; i++ {
		p := denseProb(w, x[i*cols:(i+1)*cols])
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		sum += -y[i]*math.Log(p) - (1-y[i])*math.Log(1-p)
	}
	return sum / float64(rows)
}

// checkMatchesDense evaluates w on the block through Model's wrappers and
// through a view, and requires both to equal the dense reference bit for
// bit.
func checkMatchesDense(t *testing.T, w, x, y []float64, rows, cols int) {
	t.Helper()
	wantAcc := denseAccuracy(w, x, y, rows, cols)
	wantLoss := denseCrossEntropy(w, x, y, rows, cols)
	m := &Model{W: w}
	s, err := newSparseRows(x, rows, cols)
	if err != nil {
		t.Fatalf("newSparseRows: %v", err)
	}
	for _, got := range []struct {
		name      string
		acc, loss float64
	}{
		{"Model", m.Accuracy(x, y, rows, cols), m.CrossEntropy(x, y, rows, cols)},
		{"view", s.accuracy(w, y), s.crossEntropy(w, y)},
	} {
		if math.Float64bits(got.acc) != math.Float64bits(wantAcc) {
			t.Fatalf("%s accuracy %v (%#x), dense %v (%#x)", got.name, got.acc, math.Float64bits(got.acc), wantAcc, math.Float64bits(wantAcc))
		}
		if math.Float64bits(got.loss) != math.Float64bits(wantLoss) {
			t.Fatalf("%s loss %v (%#x), dense %v (%#x)", got.name, got.loss, math.Float64bits(got.loss), wantLoss, math.Float64bits(wantLoss))
		}
	}
}

func TestSparseMatchesDense(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name       string
		x, y, w    []float64
		rows, cols int
	}{
		{
			// −0 and +0 features against weights of both signs: a dense
			// −0·w term must not leave a −0 partial sum behind.
			name: "signed zeros",
			x: []float64{
				negZero, 0, 3, negZero,
				0, negZero, negZero, 1,
				2, 0, negZero, 0,
			},
			y:    []float64{1, 0, 1},
			w:    []float64{-0.75, 1e-300, -2.5e-3, 0.125},
			rows: 3, cols: 4,
		},
		{
			// An all-zero row dots to +0 (p = 0.5, predicted 1) on both
			// paths, also with only −0 entries.
			name: "all-zero rows",
			x: []float64{
				0, 0, 0,
				negZero, negZero, negZero,
				5, 0, 1,
			},
			y:    []float64{1, 1, 1},
			w:    []float64{-1e-3, -7, 0.5},
			rows: 3, cols: 3,
		},
		{
			// Negative weights with rounding in the partial sums: the
			// nonzero terms must be added in the dense column order.
			name: "negative weights, rounding",
			x: []float64{
				97, 0, 1, 13, 0, 1,
				0, 55, 99, 0, 2, 1,
			},
			y:    []float64{0, 1},
			w:    []float64{-1.0 / 3, 0.1, -0.7, 1e-17, -1e16, 0.3},
			rows: 2, cols: 6,
		},
		{
			// Summation order decides the dot: (1 + 1e16) − 1e16 = 0 in
			// column order, but 1 in reverse.
			name: "column order",
			x: []float64{
				1, 0, 1, 1,
				0, 2, 1, 1,
			},
			y:    []float64{1, 0},
			w:    []float64{1, 3, 1e16, -1e16},
			rows: 2, cols: 4,
		},
		{
			// Saturated rows hit both probability clamps of the loss.
			name: "saturated",
			x: []float64{
				99, 0,
				0, 99,
			},
			y:    []float64{0, 1},
			w:    []float64{1, -1},
			rows: 2, cols: 2,
		},
		{
			name: "zero-row split",
			x:    nil,
			y:    nil,
			w:    []float64{1, 2},
			rows: 0, cols: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkMatchesDense(t, tc.w, tc.x, tc.y, tc.rows, tc.cols)
		})
	}
}

func TestSparseMatchesDenseOnDataset(t *testing.T) {
	ds := smallData(t)
	w := make([]float64, ds.Cols)
	for j := range w {
		w[j] = float64(j%7-3) * 1.3e-3
	}
	checkMatchesDense(t, w, ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
	checkMatchesDense(t, w, ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
}

func TestSparseLayout(t *testing.T) {
	x := []float64{
		0, 4, 0,
		0, 0, 0,
		7, 0, math.Copysign(0, -1),
	}
	s, err := newSparseRows(x, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantOff, wantCol, wantVal := []int32{0, 1, 1, 2}, []int32{1, 0}, []float32{4, 7}
	if !equalSlices(s.off, wantOff) || !equalSlices(s.col, wantCol) || !equalSlices(s.val, wantVal) {
		t.Fatalf("view (off %v, col %v, val %v), want (%v, %v, %v)", s.off, s.col, s.val, wantOff, wantCol, wantVal)
	}
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSparseRejectsInexactBlocks(t *testing.T) {
	for _, tc := range []struct {
		name       string
		x          []float64
		rows, cols int
	}{
		{"fraction", []float64{1, 0.1}, 1, 2},
		{"above 2^24", []float64{1 << 24, 1<<24 + 1}, 1, 2},
		{"NaN", []float64{math.NaN(), 1}, 1, 2},
		{"too few values", []float64{1, 2, 3}, 2, 2},
		{"negative rows", nil, -1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newSparseRows(tc.x, tc.rows, tc.cols); err == nil {
				t.Fatal("block accepted")
			}
			m := &Model{W: make([]float64, max(tc.cols, 0))}
			y := make([]float64, max(tc.rows, 0))
			if acc, loss := m.Accuracy(tc.x, y, tc.rows, tc.cols), m.CrossEntropy(tc.x, y, tc.rows, tc.cols); !math.IsNaN(acc) || !math.IsNaN(loss) {
				t.Fatalf("Model evaluation (%v, %v), want NaN", acc, loss)
			}
		})
	}
	// Integers up to 2^24 and the dataset's own features round-trip.
	if _, err := newSparseRows([]float64{-(1 << 24), 1 << 24}, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// TestTrainDistributedTraceMatchesDense checks every record of a CI-scale
// training against the dense reference at that iteration's weights. The
// run is deterministic, so training k iterations reproduces the first k
// records and yields the weights record k−1 was evaluated with.
func TestTrainDistributedTraceMatchesDense(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	const iters = 4
	cfg.Iterations = iters
	series, _, err := TrainDistributed(context.Background(), f, avccMaster(t, ds, 1, 1, nil, nil), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= iters; k++ {
		cfg.Iterations = k
		_, model, err := TrainDistributed(context.Background(), f, avccMaster(t, ds, 1, 1, nil, nil), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := series.Records[k-1]
		wantAcc := denseAccuracy(model.W, ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
		wantLoss := denseCrossEntropy(model.W, ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
		if math.Float64bits(rec.TestAccuracy) != math.Float64bits(wantAcc) ||
			math.Float64bits(rec.TrainLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("iteration %d recorded (acc %v, loss %v), dense reference (%v, %v)",
				k-1, rec.TestAccuracy, rec.TrainLoss, wantAcc, wantLoss)
		}
	}
}

// FuzzEvalMatchesDense draws small integer blocks with zero rows, ±0
// entries and arbitrary finite weights, and requires the sparse evaluation
// to equal the dense reference bit for bit.
func FuzzEvalMatchesDense(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0, 0, 3, 0, 0, 0x80, 7, 1, 9, 2}, []byte{1, 2, 3, 4, 5, 6, 7, 0xbf})
	f.Add(uint8(2), uint8(2), []byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(uint8(0), uint8(5), []byte{1}, []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint8, feats, weights []byte) {
		r, c := int(rows%9), int(cols%9)
		word := func(b []byte, i, size int) []byte {
			out := make([]byte, size)
			if i*size < len(b) {
				copy(out, b[i*size:])
			}
			return out
		}
		x := make([]float64, r*c)
		for i := range x {
			// Two in three entries are zero, half of those −0; the rest are
			// integers of |v| ≤ 32768, exact in float32.
			v := int16(binary.LittleEndian.Uint16(word(feats, i, 2)))
			switch {
			case v%3 == 0 && v < 0:
				x[i] = math.Copysign(0, -1)
			case v%3 == 0 || v%3 == 1:
				x[i] = 0
			default:
				x[i] = float64(v)
			}
		}
		y := make([]float64, r)
		for i := range y {
			y[i] = float64(i % 2)
		}
		w := make([]float64, c)
		for j := range w {
			w[j] = math.Float64frombits(binary.LittleEndian.Uint64(word(weights, j, 8)))
			if !isFinite(w[j]) {
				w[j] = float64(int8(j)) / 3
			}
		}
		checkMatchesDense(t, w, x, y, r, c)
	})
}
