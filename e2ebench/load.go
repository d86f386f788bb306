package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// requestTimeout bounds every request. A failed, shed, timed-out or wrong
// answer is recorded with this latency: it misses any latency limit.
const requestTimeout = 10 * time.Second

// pool is the precomputed input set and its exact references, built before
// any timed window from the workload seed.
type pool struct {
	inputs [][]field.Elem
	refs   [][]field.Elem
}

func newPool(f *field.Field, x *fieldmat.Matrix, rng *rand.Rand, size int) *pool {
	p := &pool{inputs: make([][]field.Elem, size), refs: make([][]field.Elem, size)}
	for i := range p.inputs {
		p.inputs[i] = f.RandVec(rng, x.Cols)
		p.refs[i] = fieldmat.MatVec(f, x, p.inputs[i])
	}
	return p
}

// doFunc sends one request and returns the answer. id identifies the
// request in spans; the input is the request's own copy.
type doFunc func(ctx context.Context, id uint64, input []field.Elem) ([]field.Elem, error)

// opRecord is one operation as the generator saw it: when it was due, when
// it was sent, when a verified answer (or the failure) came back.
type opRecord struct {
	id               uint64
	sched, sent, end time.Time
	ok               bool
}

// latencyMs is the latency from the scheduled send time; a failed op
// counts as the request timeout.
func (r opRecord) latencyMs() float64 {
	if !r.ok {
		return float64(requestTimeout) / 1e6
	}
	return float64(r.end.Sub(r.sched)) / 1e6
}

func sameElems(a, b []field.Elem) bool {
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

// loadGen sends phases of requests to one target and checks every answer.
type loadGen struct {
	do     doFunc
	pool   *pool
	nextID atomic.Uint64
}

// one sends request i (pool entry k) and fills rec.
func (d *loadGen) one(ctx context.Context, rec *opRecord, k int) {
	rec.id = d.nextID.Add(1)
	in := append([]field.Elem(nil), d.pool.inputs[k]...)
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	rec.sent = time.Now()
	out, err := d.do(rctx, rec.id, in)
	rec.end = time.Now()
	rec.ok = err == nil && sameElems(out, d.pool.refs[k])
}

// openLoop sends n requests with exponential gaps at the given rate (a
// Poisson process), each on its own goroutine regardless of how many are
// outstanding, and times each from its scheduled send.
func (d *loadGen) openLoop(ctx context.Context, rng *rand.Rand, rate float64, n int) []opRecord {
	recs := make([]opRecord, n)
	picks := make([]int, n)
	offs := make([]time.Duration, n)
	t := 0.0
	for i := range recs {
		t += rng.ExpFloat64() / rate
		offs[i] = time.Duration(t * float64(time.Second))
		picks[i] = rng.Intn(len(d.pool.inputs))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range recs {
		sched := start.Add(offs[i])
		if wait := time.Until(sched); wait > 0 {
			time.Sleep(wait)
		}
		recs[i].sched = sched
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.one(ctx, &recs[i], picks[i])
		}(i)
	}
	wg.Wait()
	return recs
}

// closedLoop runs callers that each send their next request when the
// previous one returns, for dur. It returns the records and the time from
// start until the last request returned.
func (d *loadGen) closedLoop(ctx context.Context, rng *rand.Rand, callers int, dur time.Duration) ([]opRecord, time.Duration) {
	seeds := make([]int64, callers)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var mu sync.Mutex
	var all []opRecord
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			var mine []opRecord
			for time.Now().Before(deadline) {
				var rec opRecord
				rec.sched = time.Now()
				d.one(ctx, &rec, r.Intn(len(d.pool.inputs)))
				mine = append(mine, rec)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(rand.New(rand.NewSource(seeds[c])))
	}
	wg.Wait()
	return all, time.Since(start)
}

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tailQuantile is the highest percentile with at least ten samples beyond
// it, capped at the 99th.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// latencies lists the records' latencies in milliseconds.
func latencies(recs []opRecord) []float64 {
	lat := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = r.latencyMs()
	}
	return lat
}

// phaseStats summarises one kind of phase's records. TailQ is the highest
// quantile with ten samples beyond it, capped at 0.99.
type phaseStats struct {
	Name     string  `json:"name"`
	Sent     int     `json:"sent"`
	Failed   int     `json:"failed"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	TailQ    float64 `json:"tail_quantile"`
	TailMs   float64 `json:"tail_ms"`
	MeanMs   float64 `json:"mean_ms"`
	LagP99Ms float64 `json:"gen_lag_p99_ms"`
	Seconds  float64 `json:"seconds"`
	OKPerSec float64 `json:"ok_per_sec"`
}

func summarise(name string, recs []opRecord, elapsed time.Duration) phaseStats {
	ps := phaseStats{Name: name, Sent: len(recs), Seconds: elapsed.Seconds()}
	lat := latencies(recs)
	lag := make([]float64, 0, len(recs))
	for _, r := range recs {
		if !r.ok {
			ps.Failed++
		}
		lag = append(lag, float64(r.sent.Sub(r.sched))/1e6)
	}
	if len(recs) == 0 {
		return ps
	}
	ps.MeanMs = mean(lat)
	ps.P50Ms = quantile(lat, 0.5)
	ps.P90Ms = quantile(lat, 0.9)
	ps.TailQ = tailQuantile(len(lat))
	ps.TailMs = quantile(lat, ps.TailQ)
	ps.LagP99Ms = quantile(lag, tailQuantile(len(lag)))
	if elapsed > 0 {
		ps.OKPerSec = float64(len(recs)-ps.Failed) / elapsed.Seconds()
	}
	return ps
}

// openPhaseElapsed is the span of an open-loop phase, first schedule to
// last answer.
func openPhaseElapsed(recs []opRecord) time.Duration {
	if len(recs) == 0 {
		return 0
	}
	last := recs[0].end
	for _, r := range recs {
		if r.end.After(last) {
			last = r.end
		}
	}
	return last.Sub(recs[0].sched)
}
