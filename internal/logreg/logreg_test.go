package logreg

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
	"repro/internal/simnet"
)

var f = field.Default()

func quietSim() simnet.Config {
	c := simnet.DefaultConfig()
	c.JitterFrac = 0
	c.LinkLatency = 1e-5
	return c
}

// smallData is a fast dataset for protocol-level tests.
func smallData(t *testing.T) *dataset.Data {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 180, 60, 40, 16
	cfg.Separation = 1.2 // small samples need a stronger signal
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func roundData(ds *dataset.Data) map[string]*fieldmat.Matrix {
	x := ds.FieldMatrix(f)
	return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
}

func avccMaster(t *testing.T, ds *dataset.Data, s, m int, behaviors []attack.Behavior, st attack.StragglerSchedule) cluster.Master {
	t.Helper()
	mm, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(s, m, 0),
		scheme.WithSim(quietSim()),
		scheme.WithSeed(11),
	), roundData(ds), behaviors, st)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("h(0) != 0.5")
	}
	if Sigmoid(100) <= 0.999 || Sigmoid(-100) >= 0.001 {
		t.Fatal("saturation wrong")
	}
	if s := Sigmoid(2) + Sigmoid(-2); math.Abs(s-1) > 1e-12 {
		t.Fatal("sigmoid not symmetric")
	}
	// No NaNs at extreme inputs.
	for _, x := range []float64{-1e9, 1e9, -745, 745} {
		if v := Sigmoid(x); math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("Sigmoid(%g) = %v", x, v)
		}
	}
}

func TestModelAccuracyAndLoss(t *testing.T) {
	m := &Model{W: []float64{1, 0}}
	x := []float64{5, 1, -5, 1} // two rows, bias column
	y := []float64{1, 0}
	if acc := m.Accuracy(x, y, 2, 2); acc != 1 {
		t.Fatalf("accuracy %v, want 1", acc)
	}
	yWrong := []float64{0, 1}
	if acc := m.Accuracy(x, yWrong, 2, 2); acc != 0 {
		t.Fatalf("accuracy %v, want 0", acc)
	}
	if l := m.CrossEntropy(x, y, 2, 2); l <= 0 || math.IsInf(l, 0) || math.IsNaN(l) {
		t.Fatalf("loss %v", l)
	}
	lossRight := m.CrossEntropy(x, y, 2, 2)
	lossWrong := m.CrossEntropy(x, yWrong, 2, 2)
	if lossWrong <= lossRight {
		t.Fatal("wrong labels should have higher loss")
	}
}

func TestTrainLocalLearns(t *testing.T) {
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	model, err := TrainLocal(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := model.Accuracy(ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
	if acc < 0.8 {
		t.Fatalf("local reference accuracy %.3f < 0.8 — workload not learnable", acc)
	}
}

func TestDistributedMatchesLocalReference(t *testing.T) {
	// Honest AVCC training must track the float reference closely: the only
	// divergence source is l-bit quantization.
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 10
	master := avccMaster(t, ds, 1, 1, nil, nil)
	series, distModel, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	localModel, err := TrainLocal(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Records) != 10 {
		t.Fatalf("%d records", len(series.Records))
	}
	// Weight vectors should agree to quantization precision levels.
	var maxDiff float64
	for i := range distModel.W {
		d := math.Abs(distModel.W[i] - localModel.W[i])
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.02 {
		t.Fatalf("distributed weights diverge from reference by %.4f", maxDiff)
	}
	distAcc := distModel.Accuracy(ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
	localAcc := localModel.Accuracy(ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
	if math.Abs(distAcc-localAcc) > 0.05 {
		t.Fatalf("accuracy gap %.3f vs %.3f", distAcc, localAcc)
	}
}

func TestDistributedUnderAttackStillLearns(t *testing.T) {
	// Two constant-attack Byzantines with AVCC (S=1, M=2): verification
	// must keep training clean.
	ds := smallData(t)
	behaviors := make([]attack.Behavior, 12)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	behaviors[2] = attack.Constant{V: 123}
	behaviors[8] = attack.Constant{V: 77}
	master := avccMaster(t, ds, 1, 2, behaviors, nil)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 10
	series, model, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := model.Accuracy(ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
	if acc < 0.8 {
		t.Fatalf("AVCC under attack reached only %.3f accuracy", acc)
	}
	// The Byzantines must have been caught in iteration 0 and quarantined
	// afterwards (no repeated flags).
	if len(series.Records[0].ByzantineCaught) != 2 {
		t.Fatalf("iteration 0 caught %v", series.Records[0].ByzantineCaught)
	}
	for _, r := range series.Records[2:] {
		if len(r.ByzantineCaught) != 0 {
			t.Fatalf("iteration %d still catching %v after quarantine", r.Iter, r.ByzantineCaught)
		}
	}
}

func TestUncodedUnderAttackDegrades(t *testing.T) {
	// The paper's Fig. 3 observation: without detection, Byzantine workers
	// drag accuracy below the protected schemes.
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 10

	uncodedCfg := scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithSim(quietSim()),
		scheme.WithSeed(5),
	)
	clean, err := scheme.New("uncoded", f, uncodedCfg, roundData(ds), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, cleanModel, err := TrainDistributed(context.Background(), f, clean, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	behaviors := make([]attack.Behavior, 9)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	// Large enough that the dequantized z saturates the sigmoid (scale is
	// 2^WeightBits): the corrupted blocks train on e ≈ ±1 every iteration.
	behaviors[3] = attack.Constant{V: 5_000_000}
	behaviors[6] = attack.Constant{V: 5_000_000}
	attacked, err := scheme.New("uncoded", f, uncodedCfg, roundData(ds), behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, attackedModel, err := TrainDistributed(context.Background(), f, attacked, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cleanAcc := cleanModel.Accuracy(ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
	attackedAcc := attackedModel.Accuracy(ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
	if attackedAcc >= cleanAcc {
		t.Fatalf("uncoded under attack (%.3f) not worse than clean (%.3f)", attackedAcc, cleanAcc)
	}
}

func TestSeriesTimingMonotone(t *testing.T) {
	ds := smallData(t)
	master := avccMaster(t, ds, 1, 1, nil, nil)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 5
	series, _, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range series.Records {
		if r.Time <= prev {
			t.Fatal("cumulative time not strictly increasing")
		}
		prev = r.Time
		if r.Breakdown.Wall <= 0 {
			t.Fatal("missing wall time")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	ds := smallData(t)
	master := avccMaster(t, ds, 1, 1, nil, nil)
	if _, _, err := TrainDistributed(context.Background(), f, master, ds, TrainConfig{Iterations: 0}); err == nil {
		t.Fatal("0 iterations accepted")
	}
	if _, err := TrainLocal(ds, TrainConfig{Iterations: 0}); err == nil {
		t.Fatal("local 0 iterations accepted")
	}
	// The trace evaluator is bit-exact only for finite weights.
	for _, cfg := range []TrainConfig{
		{Iterations: 1, LearningRate: math.NaN()},
		{Iterations: 1, LearningRate: 1e-5, InitialWeight: math.Inf(-1)},
	} {
		if _, _, err := TrainDistributed(context.Background(), f, master, ds, cfg); err == nil {
			t.Fatalf("non-finite config %+v accepted", cfg)
		}
	}
}
