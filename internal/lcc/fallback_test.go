package lcc

// Regression tests for the typed-error gate on the subgroup→Lagrange
// fallback in poly.CodeLayout: NewSubgroup wraps the field's *NTTSizeError
// with context, so the fallback criterion must be errors.As — a bare type
// assertion (or an err == nil blanket fallback) either stops matching or
// swallows real failures.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

// TestSubgroupErrorIsWrapped pins the poly-layer contract the fallback gate
// depends on: the size error arrives wrapped (context attached), so only
// errors.As can see it — a direct type assertion no longer matches.
func TestSubgroupErrorIsWrapped(t *testing.T) {
	f := field.MustNew(field.QDefault) // 2-adicity 3: caps transforms at size 8
	_, err := poly.NewSubgroup(f, 12, 9)
	if err == nil {
		t.Fatal("NewSubgroup(12, 9) over QDefault should fail: needs a size-16 domain")
	}
	var sizeErr *field.NTTSizeError
	if !errors.As(err, &sizeErr) {
		t.Fatalf("errors.As should find *field.NTTSizeError in %v", err)
	}
	if sizeErr.Size != 16 {
		t.Fatalf("size error for nextpow2(12) = 16, got %d", sizeErr.Size)
	}
	if _, bare := err.(*field.NTTSizeError); bare {
		t.Fatal("error should be wrapped with poly context, not returned bare")
	}
}

// TestWrappedSizeErrorTriggersFallback is the regression: a wrapped
// *NTTSizeError must still put New on the Lagrange layout, exactly as the
// unwrapped error did before the poly layer added context.
func TestWrappedSizeErrorTriggersFallback(t *testing.T) {
	f := field.MustNew(field.QDefault)
	c, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatalf("New(12, 9) over QDefault should fall back to Lagrange, got error: %v", err)
	}
	if c.NTTAccelerated() {
		t.Fatal("QDefault cannot host a size-16 domain; code must be on the Lagrange layout")
	}
	// The fallback code must actually work end to end.
	data := make([]field.Elem, 9)
	for i := range data {
		data[i] = field.Elem(i + 1)
	}
	shards, err := c.EncodeMatrix(rowVec(data), nil)
	if err != nil {
		t.Fatalf("encoding on the fallback layout: %v", err)
	}
	workers := []int{11, 2, 7, 5, 3, 9, 0, 10, 6}
	results := make([][]field.Elem, len(workers))
	for r, w := range workers {
		results[r] = shards[w].Data
	}
	out, err := c.DecodeVectors(workers, results)
	if err != nil {
		t.Fatalf("decoding on the fallback layout: %v", err)
	}
	for j := 0; j < 9; j++ {
		if len(out[j]) != 1 || out[j][0] != data[j] {
			t.Fatalf("block %d decoded to %v, want %d", j, out[j], data[j])
		}
	}
}

// TestUnexpectedSubgroupErrorPropagates closes the other half of the gate:
// an error that is NOT an NTT size error must surface from the fallback
// decision, not be silently absorbed into the Lagrange path. The gate logic
// is exercised exactly as poly.CodeLayout runs it.
func TestUnexpectedSubgroupErrorPropagates(t *testing.T) {
	cause := fmt.Errorf("poly: corrupted twiddle cache: %w", errors.New("disk error"))
	var sizeErr *field.NTTSizeError
	if errors.As(cause, &sizeErr) {
		t.Fatal("test premise: cause must not be an NTT size error")
	}
	// CodeLayout's gate: anything errors.As cannot identify as a size error is a
	// real failure.
	if gateTakesFallback(cause) {
		t.Fatal("non-size errors must propagate, not trigger the Lagrange fallback")
	}
	wrapped := fmt.Errorf("outer: %w", &field.NTTSizeError{Q: field.QDefault, TwoAdicity: 3, Size: 16})
	if !gateTakesFallback(wrapped) {
		t.Fatal("wrapped size errors must take the fallback")
	}
}

// gateTakesFallback mirrors poly.CodeLayout's fallback criterion.
func gateTakesFallback(err error) bool {
	var sizeErr *field.NTTSizeError
	return errors.As(err, &sizeErr)
}

// rowVec wraps a vector as a len×1 matrix (one row per data block).
func rowVec(data []field.Elem) *fieldmat.Matrix {
	rows := make([][]field.Elem, len(data))
	for i, v := range data {
		rows[i] = []field.Elem{v}
	}
	return fieldmat.FromRows(rows)
}
