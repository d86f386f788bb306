// Command e2ebench is the repository's end-to-end benchmark. It deploys one
// workload from its own files, drives it from this single process, checks
// every answer against an exact reference, and prints the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1) as the last line
// of standard output:
//
//	bash e2ebench/run.sh --workload serve-batched --seed 1 --seconds 40 --trace 0
//
// run.sh builds this command and cmd/avccserve from source first. The line
// before the result is a detail object: the environment (CPU model, nproc,
// GOMAXPROCS, Go version, commit and dirty flag, seed), every phase's
// counts, latencies and generator lag, the checks, every metric this file
// names below, gated or not, and host_steal_share, the share of the host's
// CPU time the hypervisor gave to other guests during the run (on a shared
// VM a run with a high share measured a contended host, not the program). -smoke runs every workload briefly (at
// smaller sizes: serve-batched 1152×96, train experiments.CI()) at both
// trace settings and asserts that each metric BENCHMARK.json names is
// printed with its unit.
//
// # Workloads
//
// Each is generated from this one process with the seed as argument and
// GOMAXPROCS left at nproc. A serving workload runs a warm-up (connection
// dials, decode-plan caches, worker pool; not timed), then four blocks, each
// an open-loop Poisson phase at a fixed rate of about a third of saturation,
// timed from each request's scheduled send, followed by a closed-loop
// saturation phase. Interleaving the blocks spreads a slow stretch of the
// shared host over both phases instead of one.
//
//   - http-receipts: the avccserve binary with its shipped defaults — avcc
//     (12,9), S=M=1, receipts issued and audited, batch 32, linger 500 µs —
//     serving a 2880×96 matrix (-seed 1, rebuilt here as the reference),
//     over HTTP/1.1 keep-alive on at most nproc connections: 40 req/s, then
//     nproc closed-loop callers. It is the only workload through the JSON
//     handler and the only one with receipts; with ≤ nproc connections a
//     round carries 1–2 requests, so per-round fixed costs dominate.
//   - serve-batched: an in-process scheme.Service over avcc (12,9) on the
//     virtual executor (the executor avccserve runs), receipts off, 11520×96:
//     250 req/s (rounds carry ~1.5 requests), then 64 callers (2×MaxBatch,
//     every round full). It isolates the coalescing queue, batched worker
//     compute (MatVecOp.ApplyBatch), stacked Freivalds and decode, at
//     opposite batch fills in its two phases.
//   - train-logreg: experiments.Paper() unchanged — 6000×5000 synthetic
//     GISETTE-sized data, 50 iterations, seed 17 — through
//     logreg.TrainDistributed on avcc (12,9), worker 0 straggling, workers 3
//     and 4 sending the constant attack, pregenerated codings (avcctrain
//     -scale paper -attack constant -s 1 -m 2). A closed loop of iterations,
//     trained three times per run on fresh deployments (147 timed
//     iterations; iteration 0 of each training is its warm-up). It is the
//     paper's application and the only workload with batch-1 rounds on two
//     round keys (fwd/bwd); its 667×5000 shards make fieldmat kernels
//     dominate, and it runs Byzantine quarantine through FinishIteration.
//   - frames-straggler (not in BENCHMARK.json; see the defects below): the
//     serve-batched deployment on 2880×96 over rpccluster.DialFrames to 12
//     ServeFrames endpoints on loopback, each owning its cluster.Worker with
//     a copy of the shard shipped at deploy time (as avccdemo does), worker
//     0's compute delayed 20 ms by a benchmark-side Op: 400 req/s, then 64
//     callers. It is the only workload on real sockets and wall-clock
//     arrivals, so it exercises the transport, the executor barrier and
//     real-time adaptation.
//
// # End-to-end metrics
//
// An op is a request on the serving workloads and a training iteration on
// train-logreg. A failed, shed, timed-out or wrong answer counts as the
// request timeout (10 s), so it misses every latency limit.
//
//	setup_s      inputs in hand → first request accepted: scheme.New encode
//	             and keys, endpoints and dial, NewService; for http-receipts
//	             process start → /healthz 200. Median of several set-ups.
//	p50_ms       median op latency in the fixed-rate phases (train: median
//	             iteration host wall time, the iter_ms of the detail line).
//	p90_ms       90th percentile of the same. On serving the detail line
//	             adds p99 (≥ 1000 requests per run), which is too unsteady
//	             on a shared 2-vCPU host to gate.
//	sat_rps      correct ops per second in the closed loop.
//	peak_rss_mb  VmHWM of the serving process: avccserve for http-receipts,
//	             otherwise this process.
//
// Detail only: failed_share (the result line's failed/attempted carry it),
// and on train test_accuracy and virt_iter_ms, the simnet-modelled time per
// iteration (the paper's Fig. 3 axis), which is deterministic and never
// reported as wall time.
//
// # Per-layer metrics (traced run), the end-to-end metric each should move
//
// The traced run records spans in the odd blocks only (train: odd
// iterations), so the even ones are its untraced baseline;
// trace.overhead_pct is the p50 difference. Spans come from wrappers around
// the public seams — the request client, scheme.Master, cluster.Executor,
// each worker's cluster.Op — plus /statz, /proc and GODEBUG=gctrace for
// avccserve. The result line carries the metrics defined on every workload
// in BENCHMARK.json:
//
//	coded.mean_ms           time an op spends in the coded stack: avccserve's
//	                        Submit→resolve (/statz), Submit→Wait in process,
//	                        fwd+bwd rounds+FinishIteration in train → p50_ms
//	front.mean_ms           the rest of the op: JSON+HTTP on http-receipts,
//	                        logreg bookkeeping on train → p50_ms
//	round.inputs_per_round  coalesced requests per coded round → sat_rps
//	master.recodes          re-encodes by the adaptation rule
//	proc.cpu_ms_per_op      serving-process CPU per op → sat_rps
//	proc.gc_cpu_fraction    GC share of that CPU → sat_rps, p50_ms
//	trace.overhead_pct      traced versus untraced p50
//
// The detail line adds, where the layer is on the workload's path and
// observable from the benchmark (avccserve's master and workers are not):
//
//	gen.lag_p99_ms                   how late the open loop sent; should not move
//	avccserve.service_mean_ms        → p50 on http-receipts (receipt issue, audit)
//	avccserve.http_mean_ms           → p50 on http-receipts (JSON, HTTP)
//	avccserve.req_per_round,
//	avccserve.cpu_ms_per_req         → sat_rps on http-receipts
//	avccserve.receipts_verified_share should stay 1
//	service.queue_wait_p50_ms/p99_ms → p50/p99 on serve-batched (linger at low
//	                                   fill), frames (behind barrier-bound rounds)
//	service.req_per_round            → sat_rps on serve-batched
//	service.resolve_mean_ms          → p50 in process
//	master.round_p50_ms/p99_ms       → p50/p99 in process
//	master.self_mean_ms              round minus executor span: verify, decode,
//	                                 pack → sat_rps serve-batched, iter_ms train
//	master.finish_mean_ms            → iter_ms
//	master.final_k, master.byzantine_per_round, master.stragglers_per_round
//	exec.round_p50_ms                → p50 on frames
//	exec.barrier_wait_mean_ms        executor span after the threshold-th
//	                                 arrival, ≈ 20 ms on frames; a streaming
//	                                 collector should take it to ≈ 0
//	worker.calls_per_round, worker.useful_share (used/calls),
//	worker.compute_sum_ms_per_round  → sat_rps serve-batched, iter_ms train:
//	                                 the virtual executor computes every active
//	                                 worker serially (12, or 10 after
//	                                 quarantine) and decodes from 9
//	worker.compute_max_ms_per_round  → p50 on frames
//	worker.ns_per_mac                → sat_rps at full batch, iter_ms train
//	train.round_fwd_ms, train.round_bwd_ms,
//	train.app_ms                     → iter_ms (app: quantize, sigmoid,
//	                                 per-iteration accuracy and loss)
//	proc.alloc_kb_per_op             → sat_rps/iter_ms where CPU bounds
//
// # Where a change should show, and where it should not
//
// Receipt hashing moves http-receipts only (the others run receipts off). A
// lazy virtual executor (9 of 12 products) moves serve-batched and train,
// not frames. A streaming or non-barrier collector moves frames-straggler,
// not the virtual-executor workloads. A batched MatMulInto kernel moves
// serve-batched's saturation phase, not train (batch 1) or the fixed-rate
// phases (fill ≈ 1.5).
//
// # Defects the benchmark reports as measured
//
// Defect 1: on frames-straggler requests fail once avcc re-codes. CPU
// contention spreads the real-time arrivals, avcc shrinks K, and
// installCoding re-encodes only the master's own Worker copies, so the
// endpoints keep stale shards and every later result fails Freivalds. It
// shows in failed_share, master.recodes and master.final_k (two 40 s runs
// on a 2-vCPU Xeon lost 45% and 49% of their requests; a short run can end
// before the first re-code). A workload whose operations fail cannot hold a
// steady gate, so it is left out of BENCHMARK.json; it still runs with
// --workload frames-straggler and in -smoke.
//
// Defect 2: experiments.Paper() training sits at 0.5 test accuracy from the
// first iteration, even uncoded and without attack; train-logreg reports
// test_accuracy as measured.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// unitOf gives every metric this benchmark reports its unit.
var unitOf = map[string]string{
	"setup_s":       "s",
	"p50_ms":        "ms",
	"p90_ms":        "ms",
	"sat_rps":       "1/s",
	"peak_rss_mb":   "MiB",
	"failed_share":  "ratio",
	"iter_ms":       "ms",
	"test_accuracy": "ratio",
	"virt_iter_ms":  "ms_modelled",

	"coded.mean_ms":          "ms",
	"front.mean_ms":          "ms",
	"round.inputs_per_round": "count",
	"master.recodes":         "count",
	"proc.cpu_ms_per_op":     "ms",
	"proc.gc_cpu_fraction":   "ratio",
	"trace.overhead_pct":     "%",

	"gen.lag_p99_ms":                    "ms",
	"avccserve.service_mean_ms":         "ms",
	"avccserve.http_mean_ms":            "ms",
	"avccserve.req_per_round":           "count",
	"avccserve.cpu_ms_per_req":          "ms",
	"avccserve.receipts_verified_share": "ratio",
	"service.queue_wait_p50_ms":         "ms",
	"service.queue_wait_p99_ms":         "ms",
	"service.req_per_round":             "count",
	"service.resolve_mean_ms":           "ms",
	"master.round_p50_ms":               "ms",
	"master.round_p99_ms":               "ms",
	"master.self_mean_ms":               "ms",
	"master.finish_mean_ms":             "ms",
	"master.final_k":                    "count",
	"master.byzantine_per_round":        "count",
	"master.stragglers_per_round":       "count",
	"exec.round_p50_ms":                 "ms",
	"exec.barrier_wait_mean_ms":         "ms",
	"worker.calls_per_round":            "count",
	"worker.useful_share":               "ratio",
	"worker.compute_sum_ms_per_round":   "ms",
	"worker.compute_max_ms_per_round":   "ms",
	"worker.ns_per_mac":                 "ns",
	"train.round_fwd_ms":                "ms",
	"train.round_bwd_ms":                "ms",
	"train.app_ms":                      "ms",
	"proc.alloc_kb_per_op":              "KiB",
	"span.identity_max_err_ms":          "ms",
}

// resultE2E and resultLayers are the metrics the result line carries: the
// end_to_end and per_layer lists of BENCHMARK.json, which -smoke checks.
var (
	resultE2E    = []string{"setup_s", "p50_ms", "p90_ms", "sat_rps", "peak_rss_mb"}
	resultLayers = []string{"coded.mean_ms", "front.mean_ms", "round.inputs_per_round", "master.recodes",
		"proc.cpu_ms_per_op", "proc.gc_cpu_fraction", "trace.overhead_pct"}
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	avccserve string // the avccserve binary http-receipts launches
	spanDir   string // where a traced run writes its spans
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	detail            map[string]any
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), detail: make(map[string]any)}
}

type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"http-receipts", runHTTPReceipts},
	{"serve-batched", runServeBatched},
	{"train-logreg", runTrainLogreg},
	{"frames-straggler", runFramesStraggler},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	smoke := flag.Bool("smoke", false, "run every workload briefly and check the printed metrics")
	avccserve := flag.String("avccserve", "", "path of the avccserve binary")
	spanDir := flag.String("spans", ".bench_build/e2ebench", "directory a traced run writes its spans to")
	flag.Parse()

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, avccserve: *avccserve, spanDir: *spanDir}
	var err error
	if *smoke {
		err = runSmoke(cfg, "BENCHMARK.json")
	} else {
		err = runOne(*name, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints the detail line and the result line.
func runOne(name string, cfg runConfig) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		return errors.New("need --seconds > 0")
	}
	total0, steal0 := hostCPU()
	res, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if total1, steal1 := hostCPU(); total1 > total0 {
		res.detail["host_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	line, err := resultLine(res, cfg.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	detail, err := detailLine(name, cfg, res)
	if err != nil {
		return err
	}
	fmt.Println(detail)
	fmt.Println(line)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the last line: the end-to-end metrics, or with trace
// the per-layer ones, each of which must have been measured.
func resultLine(res *result, trace bool) (string, error) {
	names := resultE2E
	if trace {
		names = resultLayers
	}
	ms := make(map[string]metricValue, len(names))
	for _, n := range names {
		v, ok := res.metrics[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		ms[n] = metricValue{v, unitOf[n]}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, ms})
	return string(b), err
}

// finite drops the metrics a run could not measure (NaN or infinite).
func finite(m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(m))
	for n, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[n] = metricValue{v, unitOf[n]}
		}
	}
	return out
}

// detailLine renders the environment, phases, checks and every metric.
func detailLine(name string, cfg runConfig, res *result) (string, error) {
	all := finite(res.metrics)
	res.detail["workload"] = name
	res.detail["trace"] = cfg.trace
	res.detail["env"] = environment(cfg.seed)
	res.detail["metrics"] = all
	b, err := json.Marshal(res.detail)
	return string(b), err
}

// environment is the host and build a result was taken on.
func environment(seed int64) map[string]any {
	env := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     "unknown",
		"dirty":      "unknown",
		"seed":       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["dirty"] = s.Value
			}
		}
	}
	return env
}

// runSmoke runs every workload briefly at both trace settings and checks
// that each metric named in the benchmark file is measured, with the unit
// the file gives it.
func runSmoke(cfg runConfig, benchFile string) error {
	b, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	if err := sameNames(bench.EndToEnd, resultE2E); err != nil {
		return fmt.Errorf("%s end_to_end: %w", benchFile, err)
	}
	if err := sameNames(bench.PerLayer, resultLayers); err != nil {
		return fmt.Errorf("%s per_layer: %w", benchFile, err)
	}
	cfg.smoke = true
	cfg.seconds = 2
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			res, err := w.run(cfg)
			if err != nil {
				return fmt.Errorf("smoke %s trace=%v: %w", w.name, trace, err)
			}
			line, err := resultLine(res, trace)
			if err != nil {
				return fmt.Errorf("smoke %s trace=%v: %w", w.name, trace, err)
			}
			fmt.Fprintf(os.Stderr, "smoke %s trace=%v: %s\n", w.name, trace, line)
		}
	}
	fmt.Println(`{"smoke": "ok"}`)
	return nil
}

func sameNames(listed []struct{ Name, Unit string }, printed []string) error {
	var got []string
	for _, m := range listed {
		if unitOf[m.Name] != m.Unit {
			return fmt.Errorf("metric %s has unit %q, the benchmark prints %q", m.Name, m.Unit, unitOf[m.Name])
		}
		got = append(got, m.Name)
	}
	want := append([]string(nil), printed...)
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("lists %v, the benchmark prints %v", got, want)
	}
	return nil
}

// spanPath is where a traced run of a workload writes its spans.
func spanPath(cfg runConfig, workload string) string {
	return filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed))
}
