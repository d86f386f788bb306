package repro_test

// Receipts-overhead benchmark: the committed-verification plane at GISETTE
// scale (the 2880x96 model of the paper's evaluation), receipt-on vs
// receipt-off on the same AVCC deployment. Three costs are split out:
//
//   - Round latency: host ns per RunRound with and without per-round receipt
//     issuance (worker output commitments + transcript + Merkle openings).
//     The one-time matrix commitment happens at construction, outside the
//     timed region, matching how a serving deployment amortises it.
//   - Receipt size: the encoded bytes a tenant downloads per round.
//   - Verify cost: the tenant-side offline Verify time.
//
// One 20-round run per arm moves by tens of percent on a shared host, so
// the benchmark runs each arm receiptsRuns times, alternating the arms, and
// the committed artifact records every row's median and interquartile
// range; overhead_ratio is the ratio of the medians. `go test -run '^$'
// -bench BenchmarkReceipts -benchtime 20x .` writes BENCH_receipts.json;
// 1x smoke runs (CI's bench-smoke job) execute every body but skip the
// write.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
	"repro/internal/simnet"
)

// receiptsRuns is how many runs of each arm the artifact summarises.
const receiptsRuns = 7

// receiptsRow is one BENCH_receipts.json entry: medians over Runs runs of
// Rounds rounds each, with the interquartile ranges beside them.
type receiptsRow struct {
	Receipts      bool    `json:"receipts"`
	Runs          int     `json:"runs"`
	Rounds        int     `json:"rounds"`
	NsPerRound    float64 `json:"ns_per_round"`
	NsPerRoundIQR float64 `json:"ns_per_round_iqr"`
	// ReceiptBytes, VerifyMs and VerifyMsIQR are 0 for the receipt-off arm.
	ReceiptBytes int     `json:"receipt_bytes"`
	VerifyMs     float64 `json:"verify_ms"`
	VerifyMsIQR  float64 `json:"verify_ms_iqr"`
}

// receiptsSample is one run of one arm.
type receiptsSample struct {
	rounds       int
	nsPerRound   float64
	receiptBytes int
	verifyMs     float64
}

// medianIQR returns the median of xs and the distance between its
// quartiles, interpolating linearly between order statistics.
func medianIQR(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.5), q(0.75) - q(0.25)
}

// summarise folds one arm's runs into its artifact row.
func summarise(receipts bool, samples []receiptsSample) receiptsRow {
	ns := make([]float64, len(samples))
	verify := make([]float64, len(samples))
	size := make([]float64, len(samples))
	for i, s := range samples {
		ns[i], verify[i], size[i] = s.nsPerRound, s.verifyMs, float64(s.receiptBytes)
	}
	row := receiptsRow{Receipts: receipts, Runs: len(samples), Rounds: samples[0].rounds}
	row.NsPerRound, row.NsPerRoundIQR = medianIQR(ns)
	row.VerifyMs, row.VerifyMsIQR = medianIQR(verify)
	bytes, _ := medianIQR(size)
	row.ReceiptBytes = int(bytes)
	return row
}

func BenchmarkReceipts(b *testing.B) {
	f := field.Default()
	const rows, cols = 2880, 96

	samples := map[bool][]receiptsSample{}
	for run := 0; run < receiptsRuns; run++ {
		for _, receipts := range []bool{false, true} {
			b.Run(fmt.Sprintf("receipts=%v", receipts), func(b *testing.B) {
				rng := rand.New(rand.NewSource(42))
				x := fieldmat.Rand(f, rng, rows, cols)
				sim := simnet.DefaultConfig()
				sim.LinkLatency = 1e-5
				m, err := scheme.New("avcc", f, scheme.NewConfig(
					scheme.WithSeed(42),
					scheme.WithSim(sim),
					scheme.WithReceipts(receipts),
					scheme.WithDeterministicKeys(true),
				), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				in := f.RandVec(rng, cols)
				want := fieldmat.MatVec(f, x, in)

				b.ResetTimer()
				start := time.Now()
				var rec *commit.Receipt
				for i := 0; i < b.N; i++ {
					out, err := m.RunRound(context.Background(), "fwd", in, i)
					if err != nil {
						b.Fatal(err)
					}
					rec = out.Receipt
				}
				elapsed := time.Since(start)
				b.StopTimer()

				// The decode must stay exact either way; with receipts on, the
				// last round's receipt must verify — a benchmark that times a
				// broken plane measures nothing.
				out, err := m.RunRound(context.Background(), "fwd", in, b.N)
				if err != nil {
					b.Fatal(err)
				}
				if !field.EqualVec(out.Decoded, want) {
					b.Fatal("decode is not the exact product")
				}
				sample := receiptsSample{
					rounds:     b.N,
					nsPerRound: float64(elapsed.Nanoseconds()) / float64(b.N),
				}
				if receipts {
					if rec == nil {
						b.Fatal("receipts on but the round carried none")
					}
					sample.receiptBytes = len(commit.EncodeReceipt(rec))
					vstart := time.Now()
					if err := rec.Verify(); err != nil {
						b.Fatalf("receipt rejected: %v", err)
					}
					sample.verifyMs = time.Since(vstart).Seconds() * 1e3
					b.ReportMetric(float64(sample.receiptBytes), "receipt-B")
					b.ReportMetric(sample.verifyMs, "verify-ms")
				}
				if b.N > 1 {
					samples[receipts] = append(samples[receipts], sample)
				}
			})
		}
	}

	offRuns, onRuns := samples[false], samples[true]
	if len(offRuns) < receiptsRuns || len(onRuns) < receiptsRuns {
		b.Log("skipping BENCH_receipts.json: incomplete sweep (smoke run)")
		return
	}
	off, on := summarise(false, offRuns), summarise(true, onRuns)
	data, err := json.MarshalIndent(map[string]any{
		"benchmark": "BenchmarkReceipts",
		"workload": fmt.Sprintf("avcc (12,9) virtual executor, %dx%d matvec rounds (compute-bound sim); "+
			"rows are medians over runs with interquartile ranges; "+
			"overhead_ratio is the median receipt-on round latency over the median receipt-off one", rows, cols),
		"overhead_ratio": on.NsPerRound / off.NsPerRound,
		"rows":           []receiptsRow{off, on},
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_receipts.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Log("wrote BENCH_receipts.json")
}
