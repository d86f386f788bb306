package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

// servingPlan is a serving workload's load: the open-loop rate of its
// fixed-rate phase and the caller count of its saturation phase.
type servingPlan struct {
	rate    float64
	callers int
}

// phase is one timed stretch of load and the snapshots taken at its edges.
type phase struct {
	traced        bool
	recs          []opRecord
	elapsed       time.Duration
	from, to      time.Time
	before, after any
}

// pooled returns the records and summed duration of the phases whose traced
// flag is traced.
func pooled(ps []*phase, traced bool) ([]opRecord, time.Duration, []*phase) {
	var recs []opRecord
	var elapsed time.Duration
	var sel []*phase
	for _, p := range ps {
		if p.traced == traced {
			recs = append(recs, p.recs...)
			elapsed += p.elapsed
			sel = append(sel, p)
		}
	}
	return recs, elapsed, sel
}

// setupRepeats is how many times a run deploys to take the median set-up.
func setupRepeats(cfg runConfig, n int) int {
	if cfg.smoke {
		return 2
	}
	return n
}

// phaseBlocks is how many fixed-rate + saturation blocks a serving run
// interleaves, so a slow stretch of the host spreads over both metrics.
const phaseBlocks = 4

// runPhases drives a warm-up, then phaseBlocks blocks of a fixed-rate
// open-loop phase followed by a closed-loop saturation phase. With
// tracing, rec records during the odd blocks only, so the even blocks are
// the untraced baseline. snap is called at every phase edge so the
// workload can difference its own counters.
func runPhases(cfg runConfig, d *loadGen, plan servingPlan, rng *rand.Rand, rec *recorder, snap func() any) (fixed, sat []*phase) {
	ctx := context.Background()
	s := cfg.seconds
	warm := time.Duration(math.Min(3, math.Max(0.5, 0.1*s)) * float64(time.Second))
	blocks := phaseBlocks
	if cfg.smoke {
		warm, blocks = 200*time.Millisecond, 2
	}
	d.closedLoop(ctx, rng, plan.callers, warm)
	runtime.GC()

	n := int(math.Round(plan.rate * 0.7 * s / float64(blocks)))
	satDur := time.Duration(0.3 * s / float64(blocks) * float64(time.Second))
	for b := 0; b < blocks; b++ {
		traced := cfg.trace && b%2 == 1
		rec.enable(traced)
		p := &phase{traced: traced, before: snap(), from: time.Now()}
		p.recs = d.openLoop(ctx, rng, plan.rate, max(n, 1))
		p.to, p.after = time.Now(), snap()
		p.elapsed = openPhaseElapsed(p.recs)
		fixed = append(fixed, p)

		p = &phase{traced: traced, before: snap(), from: time.Now()}
		p.recs, p.elapsed = d.closedLoop(ctx, rng, plan.callers, satDur)
		p.to, p.after = time.Now(), snap()
		sat = append(sat, p)
	}
	rec.enable(false)
	return fixed, sat
}

// servingE2E fills the end-to-end metrics every serving workload shares,
// from the untraced blocks, and the attempted/failed counts over all.
func servingE2E(res *result, fixed, sat []*phase) {
	fr, fe, _ := pooled(fixed, false)
	sr, se, _ := pooled(sat, false)
	fs, ss := summarise("fixed", fr, fe), summarise("sat", sr, se)
	res.metrics["p50_ms"] = fs.P50Ms
	res.metrics["p90_ms"] = fs.P90Ms
	res.metrics["sat_rps"] = ss.OKPerSec
	res.metrics["gen.lag_p99_ms"] = fs.LagP99Ms
	stats := []phaseStats{fs, ss}
	if tr, te, _ := pooled(fixed, true); len(tr) > 0 {
		ts := summarise("fixed.traced", tr, te)
		res.metrics["trace.overhead_pct"] = (ts.P50Ms/fs.P50Ms - 1) * 100
		res.metrics["gen.lag_p99_ms"] = ts.LagP99Ms
		str, ste, _ := pooled(sat, true)
		stats = append(stats, ts, summarise("sat.traced", str, ste))
	}
	for _, p := range append(append([]*phase(nil), fixed...), sat...) {
		for _, r := range p.recs {
			res.attempted++
			if !r.ok {
				res.failed++
			}
		}
	}
	res.metrics["failed_share"] = float64(res.failed) / float64(res.attempted)
	res.detail["phases"] = stats
	res.detail["blocks"] = len(fixed)
}

// serviceDo submits to an in-process service. With tracing on it records
// the Submit→Wait span and registers the input so the master wrapper can
// attribute the round.
func serviceDo(svc *scheme.Service, rec *recorder) doFunc {
	return func(ctx context.Context, id uint64, in []field.Elem) ([]field.Elem, error) {
		traced := rec.tracking()
		var start time.Time
		if traced {
			rec.reqs.Store(inputAddr(in), id)
			start = time.Now()
		}
		out, err := svc.Submit(ctx, "fwd", in).Wait(ctx)
		if traced {
			rec.add(span{Name: "service.request", Start: rec.ns(start), End: rec.ns(time.Now()), Parent: -1, Req: id})
			rec.reqs.Delete(inputAddr(in))
		}
		if err != nil {
			return nil, err
		}
		return out.Decoded, nil
	}
}

// inprocDeployment is an in-process serving deployment under test.
type inprocDeployment struct {
	svc    *scheme.Service
	master scheme.Master
	tm     *tracedMaster // nil when untraced
	close  func()
}

// runInProcess drives an in-process serving workload: deploy (repeated for
// the set-up median; only the last deployment is kept), precompute the
// input pool, run the phases, derive the metrics.
func runInProcess(cfg runConfig, name string, rows, cols int, plan servingPlan, deploy func(x *fieldmat.Matrix, rec *recorder) (*inprocDeployment, error)) (*result, error) {
	f := field.Default()
	rng := rand.New(rand.NewSource(cfg.seed))
	x := fieldmat.Rand(f, rng, rows, cols)
	p := newPool(f, x, rng, 128)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	res := newResult()
	var setups []float64
	var dep *inprocDeployment
	for i := 0; i < setupRepeats(cfg, 9); i++ {
		if dep != nil {
			dep.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if dep, err = deploy(x, rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer dep.close()
	res.metrics["setup_s"] = median(setups)
	res.detail["setup_s_samples"] = setups

	d := &loadGen{do: serviceDo(dep.svc, rec), pool: p}
	snap := func() any { return sampleRuntime() }
	fixed, sat := runPhases(cfg, d, plan, rng, rec, snap)
	servingE2E(res, fixed, sat)
	st := dep.svc.Stats()
	res.metrics["master.recodes"] = float64(st.Recodes)
	if a, ok := dep.master.(scheme.Adaptive); ok {
		_, k := a.Coding()
		res.metrics["master.final_k"] = float64(k)
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = rss
	if !cfg.trace {
		return res, nil
	}

	spans := rec.snapshot()
	notes := dep.tm.notes()
	_, _, tf := pooled(fixed, true)
	_, _, ts := pooled(sat, true)
	phaseLayers(res.metrics, rec, spans, notes, tf)
	res.detail["sat_layers"] = finite(phaseLayers(map[string]float64{}, rec, spans, notes, ts))
	res.detail["span_identity_tolerance_ms"] = identityToleranceMs
	res.detail["span_identity_ok"] = res.metrics["span.identity_max_err_ms"] <= identityToleranceMs
	return res, rec.write(spanPath(cfg, name))
}

// traceExecution installs a traced copy of the executor a master would use
// and a compute span around every worker's op for the given round keys.
func traceExecution(m scheme.Master, exec cluster.Executor, workers []*cluster.Worker, keys []string, rec *recorder, frames bool) {
	te := &tracedExec{inner: exec, rec: rec}
	if a, ok := m.(scheme.Adaptive); ok && frames {
		// Arrival offsets are wall-clock only on a real transport; avcc's
		// decode threshold for a degree-1 op with T = 0 is K.
		te.threshold = func() int { _, k := a.Coding(); return k }
	}
	m.SetExecutor(te)
	instrumentWorkers(workers, keys, rec)
}

// avccConfig is the (12,9), S = M = 1 deployment the serving workloads use.
func avccConfig(seed int64, receipts bool) scheme.Config {
	return scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(1, 1, 0),
		scheme.WithSeed(seed),
		scheme.WithReceipts(receipts),
	)
}

func runServeBatched(cfg runConfig) (*result, error) {
	rows := 11520
	if cfg.smoke {
		rows = 1152
	}
	return runInProcess(cfg, "serve-batched", rows, 96, servingPlan{rate: 250, callers: 64},
		func(x *fieldmat.Matrix, rec *recorder) (*inprocDeployment, error) {
			f := field.Default()
			scfg := avccConfig(cfg.seed, false)
			m, err := scheme.New("avcc", f, scfg, map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
			if err != nil {
				return nil, err
			}
			dep := &inprocDeployment{master: m}
			if rec != nil {
				// The same virtual executor avcc.NewMaster builds, wrapped.
				ve := cluster.NewVirtualExecutor(f, scfg.Sim, m.Workers(), nil, scfg.Seed+1)
				ve.CommitOutputs = scfg.Receipts
				traceExecution(m, ve, m.Workers(), []string{"fwd"}, rec, false)
				m, dep.tm = traceMaster(m, rec)
			}
			dep.svc = scheme.NewService(m, scheme.ServiceConfig{})
			dep.close = func() { dep.svc.Close(context.Background()) }
			return dep, nil
		})
}
