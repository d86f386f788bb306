package main

import (
	"context"
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fieldmat"
	"repro/internal/logreg"
	"repro/internal/scheme"
)

// trainings is how many times a train-logreg run deploys and trains; each
// training's set-up is one set-up sample and its iterations after the first
// are timed, so a run times enough iterations for a p90.
const trainings = 3

// iteration is one timed training iteration: from its fwd round start to
// the next one (or to the end of training).
type iteration struct {
	from, to      time.Time
	traced        bool
	before, after runtimeSample // with tracing only
}

func (it iteration) ms() float64 { return float64(it.to.Sub(it.from)) / 1e6 }

// runTrainLogreg trains experiments.Paper() as avcctrain -scale paper
// -attack constant -s 1 -m 2 does, on a fresh deployment each time.
// Iteration 0 of each training is its warm-up.
func runTrainLogreg(cfg runConfig) (*result, error) {
	sc := experiments.Paper()
	runs := trainings
	if cfg.smoke {
		sc, runs = experiments.CI(), 1
	}
	sc.Dataset.Seed = sc.Seed
	f, err := sc.Field()
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(sc.Dataset)
	if err != nil {
		return nil, err
	}
	x := ds.FieldMatrix(f)
	data := map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	behaviors := make([]attack.Behavior, 12)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	behaviors[3] = attack.Constant{V: experiments.ConstantAttackValue}
	behaviors[4] = attack.Constant{V: experiments.ConstantAttackValue}
	stragglers := attack.NewFixedStragglers(0)
	scfg := scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(1, 2, 0),
		scheme.WithSim(sc.Sim),
		scheme.WithSeed(sc.Seed),
		scheme.WithModulus(sc.Modulus),
		scheme.WithPregeneratedCodings(true),
	)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	res := newResult()
	var setups, accuracy, virtMs, recodes, finalK []float64
	var iters []iteration
	var notes []roundNote
	last := sc.Train.Iterations - 1
	for r := 0; r < runs; r++ {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		m, err := scheme.New("avcc", f, scfg, data, behaviors, stragglers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		wrapped, tm := traceMaster(m, rec)
		tm.keep = func(_ string, iter int) bool { return iter == 0 || iter == last }
		// With tracing, odd iterations are traced and even ones are not, and
		// the process is sampled at every iteration boundary.
		var samples []runtimeSample
		if cfg.trace {
			ve := cluster.NewVirtualExecutor(f, scfg.Sim, m.Workers(), stragglers, scfg.Seed+1)
			traceExecution(m, ve, m.Workers(), []string{"fwd", "bwd"}, rec, false)
			tm.onRound = func(key string, iter int) {
				if key == "fwd" {
					samples = append(samples, sampleRuntime())
					rec.enable(iter%2 == 1)
				}
			}
		}
		runtime.GC()
		series, _, trainErr := logreg.TrainDistributed(context.Background(), f, wrapped, ds, sc.Train)
		end := time.Now()
		if cfg.trace {
			samples = append(samples, sampleRuntime())
			rec.enable(false)
		}

		var starts []time.Time
		for _, n := range tm.notes() {
			res.attempted++
			if n.err != nil {
				res.failed++
			}
			if n.key == "fwd" {
				starts = append(starts, n.start)
			}
			notes = append(notes, n)
		}
		if trainErr != nil {
			res.detail["train_error"] = trainErr.Error()
		}
		if len(starts) < 2 {
			return nil, errors.Join(errors.New("training stopped before its second iteration"), trainErr)
		}
		bounds := append(starts, end)
		for i := 1; i < len(starts); i++ {
			it := iteration{from: bounds[i], to: bounds[i+1], traced: cfg.trace && i%2 == 1}
			if cfg.trace {
				it.before, it.after = samples[i], samples[i+1]
			}
			iters = append(iters, it)
		}

		// The decode checks, outside the timed span: the first and last
		// iterations' rounds against the full-matrix product.
		for _, k := range tm.keptRounds() {
			if !sameElems(k.output, fieldmat.MatVec(f, data[k.key], k.input)) {
				res.failed++
			}
		}
		accuracy = append(accuracy, series.FinalAccuracy())
		virtMs = append(virtMs, series.TotalTime()/float64(len(series.Records))*1e3)
		var n float64
		for _, rec := range series.Records {
			if rec.Recode {
				n++
			}
		}
		recodes = append(recodes, n)
		_, k := m.(scheme.Adaptive).Coding()
		finalK = append(finalK, float64(k))
	}
	res.metrics["setup_s"] = median(setups)
	res.detail["setup_s_samples"] = setups

	var timed, untraced []float64
	var timedDur time.Duration
	for _, it := range iters {
		if !it.traced {
			untraced = append(untraced, it.ms())
		}
		timed = append(timed, it.ms())
		timedDur += it.to.Sub(it.from)
	}
	res.metrics["p50_ms"] = median(untraced)
	res.metrics["iter_ms"] = res.metrics["p50_ms"]
	res.metrics["p90_ms"] = quantile(untraced, 0.9)
	res.metrics["sat_rps"] = float64(len(timed)) / timedDur.Seconds()
	res.metrics["failed_share"] = float64(res.failed) / float64(res.attempted)
	res.metrics["test_accuracy"] = median(accuracy)
	res.metrics["virt_iter_ms"] = median(virtMs)
	res.metrics["master.recodes"] = median(recodes)
	res.metrics["master.final_k"] = median(finalK)
	res.detail["timed_iterations"] = len(untraced)
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = rss
	if !cfg.trace {
		return res, nil
	}
	trainLayers(res.metrics, rec, notes, iters)
	return res, rec.write(spanPath(cfg, "train-logreg"))
}

// trainLayers derives the per-layer metrics from the traced iterations and
// compares them with the untraced ones.
func trainLayers(m map[string]float64, rec *recorder, notes []roundNote, iters []iteration) {
	var traced, untraced []iteration
	for _, it := range iters {
		if it.traced {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	inTraced := func(t time.Time) bool {
		for _, it := range traced {
			if !t.Before(it.from) && t.Before(it.to) {
				return true
			}
		}
		return false
	}
	x := indexSpans(rec.snapshot(), func(s span) bool { return inTraced(rec.base.Add(time.Duration(s.Start))) })
	var tracedNotes []roundNote
	var inputs float64
	for _, n := range notes {
		if inTraced(n.start) && n.err == nil {
			tracedNotes = append(tracedNotes, n)
			inputs += float64(n.batch)
		}
	}
	roundLayers(m, x, tracedNotes)

	var fwd, bwd, finish, iterSum float64
	for _, ri := range x.rounds {
		if x.spans[ri].Key == "fwd" {
			fwd += x.spans[ri].ms()
		} else {
			bwd += x.spans[ri].ms()
		}
	}
	for _, fi := range x.finishes {
		finish += x.spans[fi].ms()
	}
	var pa procAccount
	var tracedMs, untracedMs []float64
	for _, it := range traced {
		iterSum += it.ms()
		tracedMs = append(tracedMs, it.ms())
		pa.add(it.before, it.after)
	}
	for _, it := range untraced {
		untracedMs = append(untracedMs, it.ms())
	}
	n := float64(len(traced))
	m["train.round_fwd_ms"] = fwd / n
	m["train.round_bwd_ms"] = bwd / n
	m["train.app_ms"] = (iterSum - fwd - bwd - finish) / n
	m["coded.mean_ms"] = (fwd + bwd + finish) / n
	m["front.mean_ms"] = m["train.app_ms"]
	m["round.inputs_per_round"] = inputs / float64(len(tracedNotes))
	pa.metrics(m, n)
	m["trace.overhead_pct"] = (median(tracedMs)/median(untracedMs) - 1) * 100
}
