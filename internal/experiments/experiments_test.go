package experiments

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/logreg"
)

// tiny returns a scale small enough for unit tests while keeping the full
// 12-worker topology and all protocol machinery.
func tiny() Scale {
	sc := CI()
	sc.Dataset.TrainN, sc.Dataset.TestN = 360, 120
	sc.Dataset.Features, sc.Dataset.Informative = 120, 24
	sc.Train.Iterations = 8
	return sc
}

func TestMkAttack(t *testing.T) {
	for _, name := range []string{"reverse", "constant", "none"} {
		if _, err := mkAttack(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := mkAttack("nope"); err == nil {
		t.Error("unknown attack accepted")
	}
}

func TestFig3SettingLookup(t *testing.T) {
	for _, s := range Fig3Settings {
		got, err := Fig3SettingByID(s.ID)
		if err != nil || got.ID != s.ID {
			t.Errorf("lookup %s failed", s.ID)
		}
	}
	if _, err := Fig3SettingByID("fig3z"); err == nil {
		t.Error("bogus id accepted")
	}
	if _, err := Fig4SettingByID("fig4z"); err == nil {
		t.Error("bogus fig4 id accepted")
	}
}

func TestEnvironmentValidation(t *testing.T) {
	if _, err := mkEnvironment("reverse", 6, 6); err == nil {
		t.Error("oversized environment accepted")
	}
	env, err := mkEnvironment("reverse", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Stragglers are workers 0..S-1; Byzantine starts at 3.
	if !env.stragglers.IsStraggler(0, 0) || !env.stragglers.IsStraggler(1, 0) || env.stragglers.IsStraggler(2, 0) {
		t.Error("straggler placement wrong")
	}
	bs := env.behaviors(12)
	if bs[3].Name() == "honest" {
		t.Error("Byzantine placement wrong")
	}
	if bs[0].Name() != "honest" || bs[4].Name() != "honest" {
		t.Error("honest placement wrong")
	}
}

func TestFig3ShapeReverseS2M1(t *testing.T) {
	// Paper Fig. 3(a): AVCC and LCC converge to the same accuracy (LCC's
	// M=1 budget covers the single Byzantine), AVCC gets there in less
	// total time, uncoded is degraded by the undetected attack.
	res, err := RunFig3(tiny(), Fig3Settings[0])
	if err != nil {
		t.Fatal(err)
	}
	a, l, u := res.AVCC.FinalAccuracy(), res.LCC.FinalAccuracy(), res.Uncoded.FinalAccuracy()
	if a < 0.75 {
		t.Fatalf("AVCC accuracy %.3f too low — training broken", a)
	}
	if diff := a - l; diff > 0.05 || diff < -0.05 {
		t.Fatalf("AVCC (%.3f) and LCC (%.3f) should converge similarly when M=1", a, l)
	}
	if res.AVCC.TotalTime() >= res.LCC.TotalTime() {
		t.Fatalf("AVCC total %.3fs not faster than LCC %.3fs", res.AVCC.TotalTime(), res.LCC.TotalTime())
	}
	// The reverse attack is the paper's *weak* attack; at CI scale the
	// uncoded accuracy hit can be small, but uncoded must never win.
	if u > a+0.02 {
		t.Fatalf("uncoded (%.3f) beat AVCC (%.3f)", u, a)
	}
	// And uncoded must be far slower: it waits for both stragglers.
	if res.Uncoded.TotalTime() < 1.5*res.AVCC.TotalTime() {
		t.Fatalf("uncoded total %.4fs should be ≫ AVCC %.4fs with 2 stragglers",
			res.Uncoded.TotalTime(), res.AVCC.TotalTime())
	}
}

func TestFig3ShapeConstantS1M2(t *testing.T) {
	// Paper Fig. 3(d): two constant-attack Byzantines overwhelm LCC's M=1
	// design; AVCC converges to higher accuracy; uncoded is worst.
	res, err := RunFig3(tiny(), Fig3Settings[3])
	if err != nil {
		t.Fatal(err)
	}
	a, l, u := res.AVCC.FinalAccuracy(), res.LCC.FinalAccuracy(), res.Uncoded.FinalAccuracy()
	if a < 0.75 {
		t.Fatalf("AVCC accuracy %.3f too low", a)
	}
	if l >= a {
		t.Fatalf("LCC (%.3f) should be degraded below AVCC (%.3f) with M=2 > budget", l, a)
	}
	if u > a {
		t.Fatalf("uncoded (%.3f) should not beat AVCC (%.3f)", u, a)
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := RunTable1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Uncoded has a straggler on its critical path in every setting.
		if r.SpeedupUncoded < 1.2 {
			t.Errorf("%s S=%d M=%d: AVCC vs uncoded only %.2fx",
				r.Setting.Attack, r.Setting.S, r.Setting.M, r.SpeedupUncoded)
		}
		if r.Setting.S > r.Setting.M {
			// S=2,M=1 rows: LCC's design (S=1) leaves a straggler on its
			// critical path; AVCC skips it → the paper's time headline.
			if r.SpeedupLCC < 1.2 {
				t.Errorf("%s S=%d M=%d: AVCC vs LCC only %.2fx, straggler tail missing",
					r.Setting.Attack, r.Setting.S, r.Setting.M, r.SpeedupLCC)
			}
		} else {
			// S=1,M=2 rows: both avoid the single straggler; AVCC's win is
			// accuracy (the paper's "up to 5.1% accuracy improvement") and
			// it must not be meaningfully slower despite paying for
			// verification.
			if r.SpeedupLCC < 0.9 {
				t.Errorf("%s S=%d M=%d: AVCC vs LCC %.2fx, verification overhead too heavy",
					r.Setting.Attack, r.Setting.S, r.Setting.M, r.SpeedupLCC)
			}
			if r.FinalAccAVCC < r.FinalAccLCC+0.05 {
				t.Errorf("%s S=%d M=%d: AVCC accuracy %.3f not above overwhelmed LCC %.3f",
					r.Setting.Attack, r.Setting.S, r.Setting.M, r.FinalAccAVCC, r.FinalAccLCC)
			}
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "reverse attack S=2, M=1") {
		t.Error("table rendering incomplete")
	}
}

func TestFig4StragglerFree(t *testing.T) {
	// Paper Fig. 4(a): without stragglers, AVCC's verify+decode is pure
	// overhead — uncoded has the lowest wall time; AVCC's verify and decode
	// phases are nonzero while uncoded's are zero.
	res, err := RunFig4(tiny(), Fig4Settings[0])
	if err != nil {
		t.Fatal(err)
	}
	av, un, lc := res.Breakdown["avcc"], res.Breakdown["uncoded"], res.Breakdown["lcc"]
	if av.Verify <= 0 || av.Decode <= 0 {
		t.Fatal("AVCC phases missing")
	}
	if un.Verify != 0 || un.Decode != 0 {
		t.Fatal("uncoded must have no verify/decode")
	}
	if lc.Verify != 0 {
		t.Fatal("LCC must have no separate verify phase")
	}
	if un.Wall > av.Wall {
		t.Fatalf("straggler-free uncoded (%.6f) should not be slower than AVCC (%.6f)", un.Wall, av.Wall)
	}
}

func TestFig4StragglersDominanceShape(t *testing.T) {
	// Paper Fig. 4(c): with stragglers present, AVCC's verify+decode
	// overhead is dwarfed by straggler latency, and uncoded's wall time
	// (which must wait for every straggler) exceeds AVCC's.
	res, err := RunFig4(tiny(), Fig4Settings[2])
	if err != nil {
		t.Fatal(err)
	}
	av, un := res.Breakdown["avcc"], res.Breakdown["uncoded"]
	if un.Wall <= av.Wall {
		t.Fatalf("uncoded wall %.6f should exceed AVCC %.6f when stragglers exist", un.Wall, av.Wall)
	}
	overhead := av.Verify + av.Decode
	if overhead*5 > un.Wall {
		t.Fatalf("AVCC overhead %.6f not dwarfed by straggler latency %.6f", overhead, un.Wall)
	}
}

func TestFig5Shape(t *testing.T) {
	// Fig. 5 needs a compute-dominated scale AND enough iterations for the
	// one-time redistribution cost to amortise (the paper's break-even is
	// ~21 iterations of a 50-iteration run; CI scale breaks even at ~9).
	sc := CI()
	res, err := RunFig5(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecodeIter < 1 {
		t.Fatalf("AVCC should have re-coded at iteration >= 1, got %d", res.RecodeIter)
	}
	if res.RecodeCost <= 0 {
		t.Fatal("re-code must have a positive one-time cost")
	}
	// The paper's headline: despite the one-time cost, AVCC finishes ahead.
	if res.AVCC.TotalTime() >= res.StaticVCC.TotalTime() {
		t.Fatalf("AVCC total %.4fs not below Static VCC %.4fs",
			res.AVCC.TotalTime(), res.StaticVCC.TotalTime())
	}
	// Immediately after the recode iteration AVCC may be BEHIND (it just
	// paid the cost); the crossover must happen before the end.
	ri := res.RecodeIter
	if ri+1 < len(res.AVCC.Records) {
		crossed := false
		for i := ri; i < len(res.AVCC.Records); i++ {
			if res.AVCC.Records[i].Time < res.StaticVCC.Records[i].Time {
				crossed = true
				break
			}
		}
		if !crossed {
			t.Fatal("AVCC never crossed below Static VCC after re-coding")
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Fig. 5") {
		t.Error("render incomplete")
	}
}

func TestRenderFig3AndFig4(t *testing.T) {
	sc := tiny()
	sc.Train.Iterations = 3
	res3, err := RunFig3(sc, Fig3Settings[0])
	if err != nil {
		t.Fatal(err)
	}
	if out := res3.Render(); !strings.Contains(out, "fig3a") || !strings.Contains(out, "avcc") {
		t.Error("fig3 render incomplete")
	}
	res4, err := RunFig4(sc, Fig4Settings[1])
	if err != nil {
		t.Fatal(err)
	}
	if out := res4.Render(); !strings.Contains(out, "fig4b") || !strings.Contains(out, "verify") {
		t.Error("fig4 render incomplete")
	}
}

// TestPaperLearningRateDescends guards the paper-scale step size: over the
// float reference's first eight iterations the training loss must not rise
// and test accuracy must hold. At η = 1e-5 the step overshoots: accuracy
// falls to 0.69 at iteration 3 and the loss rises from iteration 5 on.
func TestPaperLearningRateDescends(t *testing.T) {
	sc := Paper()
	sc.Dataset.Seed = sc.Seed
	ds, err := dataset.Generate(sc.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	prev := (&logreg.Model{W: make([]float64, ds.Cols)}).CrossEntropy(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
	for k := 2; k <= 8; k += 2 {
		cfg := sc.Train
		cfg.Iterations = k
		model, err := logreg.TrainLocal(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		loss := model.CrossEntropy(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
		acc := model.Accuracy(ds.TestX, ds.TestY, ds.TestRows, ds.Cols)
		t.Logf("after %d iterations: train loss %.4f, test accuracy %.3f", k, loss, acc)
		if loss > prev || acc < 0.99 {
			t.Fatalf("learning rate %g: after %d iterations train loss %.4f (previous %.4f), test accuracy %.3f",
				cfg.LearningRate, k, loss, prev, acc)
		}
		prev = loss
	}
}
