package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

func testPool(t *testing.T) (*field.Field, *fieldmat.Matrix, *pool) {
	t.Helper()
	f := field.Default()
	rng := rand.New(rand.NewSource(3))
	x := fieldmat.Rand(f, rng, 36, 8)
	return f, x, newPool(f, x, rng, 8)
}

// A wrong answer is a failed operation, counted and timed as the timeout,
// never an abort.
func TestCorruptedAnswerIsCounted(t *testing.T) {
	f, x, p := testPool(t)
	calls := 0
	d := &loadGen{pool: p, do: func(_ context.Context, _ uint64, in []field.Elem) ([]field.Elem, error) {
		calls++
		out := fieldmat.MatVec(f, x, in)
		if calls%3 == 0 {
			out[len(out)-1] = f.Add(out[len(out)-1], 1)
		}
		return out, nil
	}}
	recs, _ := d.closedLoop(context.Background(), rand.New(rand.NewSource(1)), 1, 20*time.Millisecond)
	ps := summarise("closed", recs, time.Second)
	if want := len(recs) / 3; ps.Failed != want || want == 0 {
		t.Fatalf("%d of %d requests counted failed, want %d", ps.Failed, len(recs), want)
	}
	for _, r := range recs {
		if !r.ok && r.latencyMs() != float64(requestTimeout)/1e6 {
			t.Fatalf("failed request latency %v ms, want the timeout", r.latencyMs())
		}
	}

	res := newResult()
	blocks := []*phase{{recs: recs, elapsed: time.Second}}
	servingE2E(res, blocks, blocks)
	if line, err := resultLine(res, false); err == nil {
		t.Fatalf("result line without the other metrics: %s", line)
	}
	if res.failed != 2*ps.Failed || res.attempted != 2*ps.Sent {
		t.Fatalf("result counts %d/%d, want %d/%d", res.failed, res.attempted, 2*ps.Failed, 2*ps.Sent)
	}
}

// The open loop sends exactly n requests and checks each one.
func TestOpenLoopChecksEveryAnswer(t *testing.T) {
	f, x, p := testPool(t)
	d := &loadGen{pool: p, do: func(_ context.Context, _ uint64, in []field.Elem) ([]field.Elem, error) {
		return fieldmat.MatVec(f, x, in), nil
	}}
	recs := d.openLoop(context.Background(), rand.New(rand.NewSource(2)), 2000, 40)
	ps := summarise("open", recs, openPhaseElapsed(recs))
	if ps.Sent != 40 || ps.Failed != 0 {
		t.Fatalf("sent %d failed %d, want 40 and 0", ps.Sent, ps.Failed)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {49, 1 - 10.0/49}, {100, 0.9}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
}

func TestParseGCTrace(t *testing.T) {
	ms, ok := parseGCTrace("gc 7 @1.203s 3%: 0.020+1.1+0.010 ms clock, 0.050+0.30/0.90/1.4+0.020 ms cpu, 4->4->1 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || ms < 1.269 || ms > 1.271 {
		t.Fatalf("parseGCTrace = %v, %v; want 1.27 ms", ms, ok)
	}
	if _, ok := parseGCTrace("avccserve: listening"); ok {
		t.Fatal("parsed a line that is not a GC trace")
	}
}

// The wrappers keep every optional interface of what they wrap, so the
// traced run takes the code paths the untraced one does.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	f, x, _ := testPool(t)
	m, err := scheme.New("avcc", f, avccConfig(1, true), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _ := traceMaster(m, newRecorder())
	if _, ok := wrapped.(scheme.Adaptive); !ok {
		t.Error("wrapped avcc master lost scheme.Adaptive")
	}
	if _, ok := wrapped.(commit.DigestProvider); !ok {
		t.Error("wrapped avcc master lost commit.DigestProvider")
	}
	if _, ok := wrapped.(scheme.Elastic); ok {
		t.Error("wrapped avcc master gained scheme.Elastic")
	}
	if _, ok := wrapOp(cluster.MatVecOp{}, &timedOp{}).(cluster.BatchOp); !ok {
		t.Error("wrapped MatVecOp lost cluster.BatchOp")
	}
	if _, ok := wrapOp(cluster.GramOp{}, &timedOp{}).(cluster.BatchOp); ok {
		t.Error("wrapped GramOp gained cluster.BatchOp")
	}
}

// A traced in-process service attributes every request to one round, and
// the spans add up to each request's latency.
func TestSpanIdentity(t *testing.T) {
	f, x, p := testPool(t)
	rec := newRecorder()
	scfg := avccConfig(1, false)
	m, err := scheme.New("avcc", f, scfg, map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traceExecution(m, cluster.NewVirtualExecutor(f, scfg.Sim, m.Workers(), nil, scfg.Seed+1), m.Workers(), []string{"fwd"}, rec, false)
	wrapped, tm := traceMaster(m, rec)
	svc := scheme.NewService(wrapped, scheme.ServiceConfig{})
	defer svc.Close(context.Background())
	d := &loadGen{pool: p, do: serviceDo(svc, rec)}
	rec.enable(true)
	ph := &phase{before: sampleRuntime(), from: time.Now()}
	ph.recs = d.openLoop(context.Background(), rand.New(rand.NewSource(5)), 500, 60)
	ph.to, ph.after = time.Now(), sampleRuntime()
	rec.enable(false)

	ms := phaseLayers(map[string]float64{}, rec, rec.snapshot(), tm.notes(), []*phase{ph})
	if got := ms["span.identity_max_err_ms"]; got > identityToleranceMs {
		t.Fatalf("span identity off by %v ms, tolerance %v", got, identityToleranceMs)
	}
	if ms["worker.calls_per_round"] != 12 || ms["worker.useful_share"] != 0.75 {
		t.Fatalf("worker calls %v useful %v, want 12 and 0.75", ms["worker.calls_per_round"], ms["worker.useful_share"])
	}
	if ms["service.req_per_round"] < 1 {
		t.Fatalf("req per round %v", ms["service.req_per_round"])
	}
}
