package scheme

// The receipts conformance axis: with the committed-verification plane on,
// every registered scheme's rounds must carry a receipt that verifies
// offline exactly when the decode is bit-exact — across the steady and
// adversarial-wave scenario profiles and across 1- and 2-group shard
// deployments (where the fleet receipt is the fold of the group receipts).
// The converse direction is the tamper suite below: when corrupt results DO
// flow into the decode (the uncoded baseline, LCC's over-budget fallback),
// receipt verification must fail and name the offending workers — and never
// an honest one.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/poly"
	"repro/internal/scenario"
)

// receiptField resolves the receipts axis' modulus: 0 is the paper's field
// with the config left unpinned, anything else pins the config to it.
func receiptField(t *testing.T, modulus uint64) (*field.Field, []Option) {
	t.Helper()
	if modulus == 0 {
		return field.Default(), nil
	}
	f, err := FieldFor(Config{Modulus: modulus})
	if err != nil {
		t.Fatal(err)
	}
	return f, []Option{WithModulus(modulus)}
}

// receiptConfig is the shared deployment configuration of the receipts axis.
func receiptConfig(tc conformanceCase, extra ...Option) Config {
	opts := append([]Option{
		WithCoding(tc.n, tc.k),
		WithBudgets(1, 1, 0),
		WithSim(conformanceSim()),
		WithSeed(conformanceSeed),
		WithReceipts(true),
		WithDeterministicKeys(true),
	}, extra...)
	return NewConfig(opts...)
}

func receiptMatrix(t *testing.T, f *field.Field, rng *rand.Rand, tc conformanceCase) *fieldmat.Matrix {
	t.Helper()
	if tc.key == gavcc.GramKey {
		return fieldmat.Rand(f, rng, 64, 48)
	}
	return fieldmat.Rand(f, rng, 720, 120)
}

// runReceiptRounds drives one (scheme, profile, shards) cell on the given
// modulus and asserts the forward direction of the receipt contract:
// bit-exact decode ⇒ receipt present, bound to the deployment's published
// digest, and verifying. It also pins the no-write contract of the
// zero-copy systematic shards: the data matrix the shards may alias is
// byte-identical after the rounds.
func runReceiptRounds(t *testing.T, tc conformanceCase, profile string, shards, rounds int, modulus uint64) {
	t.Helper()
	f, opts := receiptField(t, modulus)
	rng := rand.New(rand.NewSource(conformanceSeed))
	x := receiptMatrix(t, f, rng, tc)
	pristine := x.Clone()
	scn, err := scenario.Profile(profile, tc.n, tc.k, conformanceSeed)
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, WithScenario(scn), WithShards(shards))
	m, err := New(tc.scheme, f, receiptConfig(tc, opts...), tc.data(x), nil, nil)
	if err != nil {
		t.Fatalf("%s under %s x%d: %v", tc.scheme, profile, shards, err)
	}
	dp, ok := m.(commit.DigestProvider)
	if !ok {
		t.Fatalf("%s master does not expose ReceiptDigests", tc.scheme)
	}
	digests := dp.ReceiptDigests()
	if digests == nil || len(digests[tc.key]) == 0 {
		t.Fatalf("%s: no published digest for key %q", tc.scheme, tc.key)
	}
	published := commit.FoldDigests(digests[tc.key])

	for iter := 0; iter < rounds; iter++ {
		in := tc.input(f, rng, x)
		out, err := m.RunRound(context.Background(), tc.key, in, iter)
		if err != nil {
			t.Fatalf("%s under %s x%d, iter %d: %v", tc.scheme, profile, shards, iter, err)
		}
		if want := tc.want(f, x, in, tc.k); !field.EqualVec(out.Decoded, want) {
			t.Fatalf("%s under %s x%d, iter %d: decode not bit-exact", tc.scheme, profile, shards, iter)
		}
		if out.Receipt == nil {
			t.Fatalf("%s under %s x%d, iter %d: bit-exact round carried no receipt", tc.scheme, profile, shards, iter)
		}
		if got := len(out.Receipt.Groups); got != max(shards, 1) {
			t.Fatalf("%s x%d: receipt has %d groups", tc.scheme, shards, got)
		}
		if err := out.Receipt.Verify(); err != nil {
			t.Fatalf("%s under %s x%d, iter %d: receipt for a bit-exact decode rejected: %v",
				tc.scheme, profile, shards, iter, err)
		}
		if got := out.Receipt.FoldedDigest(); got != published {
			t.Fatalf("%s x%d: receipt digest %s, deployment publishes %s", tc.scheme, shards, got, published)
		}
		m.FinishIteration(iter)
	}
	if !x.Equal(pristine) {
		t.Fatalf("%s under %s x%d: the data matrix was written after encoding", tc.scheme, profile, shards)
	}
}

func TestReceiptConformanceAllSchemes(t *testing.T) {
	receiptConformance(t, 0)
}

// TestReceiptConformanceNTTModulus runs the same cells on field.QNTT, where
// every scheme's code takes the subgroup layout: the verifier must re-derive
// those points from (Q, N, K) and accept every honest receipt.
func TestReceiptConformanceNTTModulus(t *testing.T) {
	receiptConformance(t, field.QNTT)
}

func receiptConformance(t *testing.T, modulus uint64) {
	const rounds = 4
	for _, tc := range conformanceCases() {
		for _, profile := range []string{scenario.Steady, scenario.AdversarialWave} {
			for _, shards := range []int{1, 2} {
				tc, profile, shards := tc, profile, shards
				t.Run(fmt.Sprintf("%s/%s/shards=%d", tc.scheme, profile, shards), func(t *testing.T) {
					runReceiptRounds(t, tc, profile, shards, rounds, modulus)
				})
			}
		}
	}
}

// TestNTTModulusMastersUseSubgroupLayout pins the codec dispatch through a
// whole master: an avcc (12,9) deployment pinned to field.QNTT issues
// receipts whose worker points are the subgroup layout's, while on the
// paper modulus the same deployment keeps the Lagrange points α_i = i+1.
func TestNTTModulusMastersUseSubgroupLayout(t *testing.T) {
	for _, c := range []struct {
		modulus  uint64
		subgroup bool
	}{{field.QNTT, true}, {0, false}} {
		tc := matvecCase("avcc")
		f, opts := receiptField(t, c.modulus)
		rng := rand.New(rand.NewSource(conformanceSeed))
		x := receiptMatrix(t, f, rng, tc)
		m, err := New("avcc", f, receiptConfig(tc, opts...), tc.data(x), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.RunRound(context.Background(), tc.key, tc.input(f, rng, x), 0)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := poly.CodeLayout(f, 12, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if (layout.Domain != nil) != c.subgroup {
			t.Fatalf("q=%d: (12,9) subgroup layout = %v, want %v", f.Q(), layout.Domain != nil, c.subgroup)
		}
		for _, w := range out.Receipt.Groups[0].Workers {
			if w.Alpha != layout.Alphas[w.ID] {
				t.Fatalf("q=%d: worker %d at point %d, the layout puts it at %d", f.Q(), w.ID, w.Alpha, layout.Alphas[w.ID])
			}
			if !c.subgroup && w.Alpha != field.Elem(w.ID+1) {
				t.Fatalf("paper modulus: worker %d at point %d, want the Lagrange point %d", w.ID, w.Alpha, w.ID+1)
			}
		}
	}
}

// TestReceiptVerifiesWithCaughtByzantine: when a scheme's own verification
// catches and excludes a Byzantine worker, the decode stays bit-exact and the
// receipt — which attests only the consumed contributions — must verify, with
// the caught worker absent from it.
func TestReceiptVerifiesWithCaughtByzantine(t *testing.T) {
	for _, name := range []string{"avcc", "static-vcc", "lcc"} {
		t.Run(name, func(t *testing.T) {
			tc := matvecCase(name)
			f := field.Default()
			rng := rand.New(rand.NewSource(conformanceSeed))
			x := receiptMatrix(t, f, rng, tc)
			behaviors := make([]attack.Behavior, tc.n)
			for i := range behaviors {
				behaviors[i] = attack.Honest{}
			}
			behaviors[3] = attack.ReverseValue{}
			m, err := New(name, f, receiptConfig(tc), tc.data(x), behaviors, nil)
			if err != nil {
				t.Fatal(err)
			}
			in := tc.input(f, rng, x)
			out, err := m.RunRound(context.Background(), tc.key, in, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !field.EqualVec(out.Decoded, tc.want(f, x, in, tc.k)) {
				t.Fatalf("%s: one in-budget Byzantine worker corrupted the decode", name)
			}
			if err := out.Receipt.Verify(); err != nil {
				t.Fatalf("%s: receipt for a corrected round rejected: %v", name, err)
			}
			for _, w := range out.Receipt.Groups[0].Workers {
				if w.ID == 3 {
					t.Fatalf("%s: the caught Byzantine worker appears in the receipt", name)
				}
			}
		})
	}
}

// TestReceiptIdentifiesTamperedUncoded: the uncoded baseline has no
// verification of its own — a Byzantine block flows straight into the output
// — so the receipt is the tenant's only detector, and it must name exactly
// the tampering worker.
func TestReceiptIdentifiesTamperedUncoded(t *testing.T) {
	tamperedUncoded(t, 0)
}

// TestReceiptIdentifiesTamperedUncodedNTT is the uncoded tamper cell on
// field.QNTT's subgroup layout.
func TestReceiptIdentifiesTamperedUncodedNTT(t *testing.T) {
	tamperedUncoded(t, field.QNTT)
}

func tamperedUncoded(t *testing.T, modulus uint64) {
	f, opts := receiptField(t, modulus)
	rng := rand.New(rand.NewSource(3))
	x := fieldmat.Rand(f, rng, 40, 16)
	behaviors := []attack.Behavior{attack.Honest{}, attack.Honest{}, attack.Constant{V: 5}, attack.Honest{}}
	m, err := New("uncoded", f, NewConfig(append(opts,
		WithCoding(4, 4), WithBudgets(0, 0, 0), WithSeed(3), WithReceipts(true),
	)...), map[string]*fieldmat.Matrix{"fwd": x}, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := f.RandVec(rng, x.Cols)
	out, err := m.RunRound(context.Background(), "fwd", in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
		t.Fatal("the constant attack did not corrupt the uncoded output (test setup broken)")
	}
	var bad *commit.BadWorkersError
	if err := out.Receipt.Verify(); !errors.As(err, &bad) {
		t.Fatalf("want BadWorkersError for the tampered round, got %v", err)
	}
	if len(bad.Workers) != 1 || bad.Workers[0] != (commit.WorkerRef{Group: 0, Worker: 2}) {
		t.Fatalf("want exactly worker {0 2} identified, got %v", bad.Workers)
	}
}

// TestReceiptIdentifiesTamperedLCCFallback: four corrupt workers overwhelm
// LCC's M = 1 correction budget, forcing the erasure-only fallback that lets
// corrupt contributions through — the paper's overloaded-LCC failure mode.
// The receipt must reject the round and every flagged worker must actually
// be corrupt — and every corrupt worker the receipt lists must be flagged.
func TestReceiptIdentifiesTamperedLCCFallback(t *testing.T) {
	tamperedLCCFallback(t, 0)
}

// TestReceiptIdentifiesTamperedLCCFallbackNTT is the LCC fallback tamper
// cell on field.QNTT's subgroup layout.
func TestReceiptIdentifiesTamperedLCCFallbackNTT(t *testing.T) {
	tamperedLCCFallback(t, field.QNTT)
}

func tamperedLCCFallback(t *testing.T, modulus uint64) {
	f, opts := receiptField(t, modulus)
	rng := rand.New(rand.NewSource(5))
	x := fieldmat.Rand(f, rng, 72, 16)
	corrupt := map[int]bool{1: true, 4: true, 7: true, 10: true}
	behaviors := make([]attack.Behavior, 12)
	for i := range behaviors {
		if corrupt[i] {
			behaviors[i] = attack.ReverseValue{}
		} else {
			behaviors[i] = attack.Honest{}
		}
	}
	m, err := New("lcc", f, NewConfig(append(opts,
		WithCoding(12, 9), WithBudgets(1, 1, 0), WithSeed(5), WithReceipts(true),
	)...), map[string]*fieldmat.Matrix{"fwd": x}, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := f.RandVec(rng, x.Cols)
	out, err := m.RunRound(context.Background(), "fwd", in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
		t.Fatal("the over-budget round decoded bit-exact (test setup broken: fallback never engaged?)")
	}
	var bad *commit.BadWorkersError
	if err := out.Receipt.Verify(); !errors.As(err, &bad) {
		t.Fatalf("want BadWorkersError for the fallback round, got %v", err)
	}
	if len(bad.Workers) == 0 {
		t.Fatal("no workers identified")
	}
	flagged := make(map[int]bool, len(bad.Workers))
	for _, w := range bad.Workers {
		if w.Group != 0 || !corrupt[w.Worker] {
			t.Errorf("honest worker %v flagged", w)
		}
		flagged[w.Worker] = true
	}
	for _, w := range out.Receipt.Groups[0].Workers {
		if corrupt[w.ID] && !flagged[w.ID] {
			t.Errorf("corrupt worker %d is in the receipt but was not flagged", w.ID)
		}
	}
}

// TestBatchedRoundSharesOneReceipt: a coalesced round issues ONE receipt
// covering every batch column, and each projected RoundOutput points at its
// own column.
func TestBatchedRoundSharesOneReceipt(t *testing.T) {
	tc := matvecCase("avcc")
	f := field.Default()
	rng := rand.New(rand.NewSource(conformanceSeed))
	x := receiptMatrix(t, f, rng, tc)
	m, err := New("avcc", f, receiptConfig(tc), tc.data(x), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]field.Elem{tc.input(f, rng, x), tc.input(f, rng, x), tc.input(f, rng, x)}
	out, err := m.RunRoundBatch(context.Background(), tc.key, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Receipt == nil || out.Receipt.Batch != len(inputs) {
		t.Fatalf("want one receipt with Batch = %d, got %+v", len(inputs), out.Receipt)
	}
	if err := out.Receipt.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		ro := out.Round(i)
		if ro.Receipt != out.Receipt || ro.ReceiptColumn != i {
			t.Fatalf("entry %d: receipt column %d (receipt shared: %v)", i, ro.ReceiptColumn, ro.Receipt == out.Receipt)
		}
	}
}
