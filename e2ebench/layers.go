package main

import (
	"math"
	"time"
)

// spanIndex groups the spans a window selects by layer.
type spanIndex struct {
	spans       []span
	requests    map[uint64]span // service.request by request ID
	members     map[uint64]span // round.member by request ID
	rounds      []int           // master.round
	finishes    []int           // master.finish
	execOf      map[int]int     // master.round → exec.round
	workersOf   map[int][]span  // exec.round → worker.compute
	thresholdOf map[int]span    // exec.round → exec.threshold
}

func indexSpans(spans []span, in func(span) bool) *spanIndex {
	x := &spanIndex{spans: spans, requests: map[uint64]span{}, members: map[uint64]span{},
		execOf: map[int]int{}, workersOf: map[int][]span{}, thresholdOf: map[int]span{}}
	for i, s := range spans {
		if !in(s) {
			continue
		}
		switch s.Name {
		case "service.request":
			x.requests[s.Req] = s
		case "round.member":
			x.members[s.Req] = s
		case "master.round":
			x.rounds = append(x.rounds, i)
		case "master.finish":
			x.finishes = append(x.finishes, i)
		case "exec.round":
			x.execOf[s.Parent] = i
		case "exec.threshold":
			x.thresholdOf[s.Parent] = s
		case "worker.compute":
			x.workersOf[s.Parent] = append(x.workersOf[s.Parent], s)
		}
	}
	return x
}

// roundLayers derives the master, executor and worker metrics of the
// indexed rounds. notes are the same rounds' always-on records.
func roundLayers(m map[string]float64, x *spanIndex, notes []roundNote) {
	var roundMs, selfMs, execMs, sumMs, maxMs, barrier, finishMs []float64
	var calls, macs, computeNs float64
	for _, ri := range x.rounds {
		round := x.spans[ri]
		roundMs = append(roundMs, round.ms())
		ei, ok := x.execOf[ri]
		if !ok {
			continue
		}
		exec := x.spans[ei]
		execMs = append(execMs, exec.ms())
		selfMs = append(selfMs, round.ms()-exec.ms())
		var sum, mx float64
		for _, w := range x.workersOf[ei] {
			sum += w.ms()
			mx = math.Max(mx, w.ms())
			macs += float64(w.Count)
			computeNs += float64(w.End - w.Start)
			calls++
		}
		sumMs = append(sumMs, sum)
		maxMs = append(maxMs, mx)
		if th, ok := x.thresholdOf[ei]; ok {
			barrier = append(barrier, th.ms())
		}
	}
	for _, fi := range x.finishes {
		finishMs = append(finishMs, x.spans[fi].ms())
	}
	var used, byz, strag float64
	for _, n := range notes {
		used += float64(n.used)
		byz += float64(n.byz)
		strag += float64(n.stragglers)
	}
	m["master.round_p50_ms"] = quantile(roundMs, 0.5)
	m["master.round_p99_ms"] = quantile(roundMs, tailQuantile(len(roundMs)))
	m["master.self_mean_ms"] = mean(selfMs)
	m["master.finish_mean_ms"] = mean(finishMs)
	m["master.byzantine_per_round"] = byz / float64(len(notes))
	m["master.stragglers_per_round"] = strag / float64(len(notes))
	m["exec.round_p50_ms"] = quantile(execMs, 0.5)
	if len(barrier) > 0 {
		m["exec.barrier_wait_mean_ms"] = mean(barrier)
	}
	m["worker.calls_per_round"] = calls / float64(len(execMs))
	m["worker.useful_share"] = used / calls
	m["worker.compute_sum_ms_per_round"] = mean(sumMs)
	m["worker.compute_max_ms_per_round"] = mean(maxMs)
	m["worker.ns_per_mac"] = computeNs / macs
}

// requestLayers derives the service metrics of one traced serving phase
// and checks the span identity: for every answered request, generator lag
// + queue wait + round + resolve equals its measured latency.
func requestLayers(m map[string]float64, x *spanIndex, recs []opRecord) {
	var queue, resolve, coded, front []float64
	var idErrMax float64
	for _, r := range recs {
		req, ok1 := x.requests[r.id]
		mem, ok2 := x.members[r.id]
		if !ok1 || !ok2 || !r.ok {
			continue
		}
		q := float64(mem.Start-req.Start) / 1e6
		rs := float64(req.End-mem.End) / 1e6
		queue = append(queue, q)
		resolve = append(resolve, rs)
		coded = append(coded, req.ms())
		front = append(front, float64(r.end.Sub(r.sent))/1e6-req.ms())
		lag := float64(r.sent.Sub(r.sched)) / 1e6
		idErrMax = math.Max(idErrMax, math.Abs(lag+q+mem.ms()+rs-r.latencyMs()))
	}
	m["service.queue_wait_p50_ms"] = quantile(queue, 0.5)
	m["service.queue_wait_p99_ms"] = quantile(queue, tailQuantile(len(queue)))
	m["service.resolve_mean_ms"] = mean(resolve)
	m["service.req_per_round"] = float64(len(x.members)) / float64(len(x.rounds))
	m["round.inputs_per_round"] = m["service.req_per_round"]
	m["coded.mean_ms"] = mean(coded)
	m["front.mean_ms"] = mean(front)
	m["span.identity_max_err_ms"] = idErrMax
}

// identityToleranceMs is how far the span identity may be off: the clock
// reads that bound adjacent spans are a few calls apart, not the same read.
const identityToleranceMs = 0.5

// procAccount sums what this process spent over some windows. The runtime
// books GC CPU when a cycle ends, so the GC share is only meaningful over
// windows that together span several cycles.
type procAccount struct {
	cpuMs, allocKB, gcMs float64
}

func (a *procAccount) add(from, to runtimeSample) {
	a.cpuMs += float64(to.cpu-from.cpu) / 1e6
	a.allocKB += (to.allocB - from.allocB) / 1024
	a.gcMs += (to.gcCPU - from.gcCPU) * 1e3
}

func (a *procAccount) metrics(m map[string]float64, ops float64) {
	m["proc.cpu_ms_per_op"] = a.cpuMs / ops
	m["proc.alloc_kb_per_op"] = a.allocKB / ops
	m["proc.gc_cpu_fraction"] = a.gcMs / a.cpuMs
}

// phaseLayers derives every per-layer metric of some traced in-process
// serving phases into m and returns m.
func phaseLayers(m map[string]float64, rec *recorder, spans []span, notes []roundNote, ps []*phase) map[string]float64 {
	inAny := func(t time.Time) bool {
		for _, p := range ps {
			if !t.Before(p.from) && t.Before(p.to) {
				return true
			}
		}
		return false
	}
	x := indexSpans(spans, func(s span) bool { return inAny(rec.base.Add(time.Duration(s.Start))) })
	var kept []roundNote
	for _, n := range notes {
		if inAny(n.start) && n.err == nil {
			kept = append(kept, n)
		}
	}
	roundLayers(m, x, kept)
	var recs []opRecord
	var pa procAccount
	for _, p := range ps {
		recs = append(recs, p.recs...)
		pa.add(p.before.(runtimeSample), p.after.(runtimeSample))
	}
	requestLayers(m, x, recs)
	pa.metrics(m, float64(len(recs)))
	return m
}
