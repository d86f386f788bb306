package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that caused this one (-1 for
// a root). Worker, Count and Key carry the layer's counts: the worker ID of
// a compute span, the multiply-accumulates it did, the batch of a round.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Count  int64  `json:"count,omitempty"`
	Key    string `json:"key,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory and writes them once, at exit. Recording
// can be switched off and on while the wrappers stay installed, so one run
// compares traced and untraced stretches of the same deployment.
//
// The current round and executor span are single slots: the service's
// dispatcher and the training loop run one coded round at a time, so a
// worker compute span's parent is whatever executor span is open.
type recorder struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span

	curRound atomic.Int64
	curExec  atomic.Int64

	// reqs maps the address of a submitted input to its request ID, so the
	// master wrapper can tell which requests a coalesced round carries.
	reqs sync.Map
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	r.curRound.Store(-1)
	r.curExec.Store(-1)
	return r
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.base).Nanoseconds() }

// add appends a span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// tracking reports whether spans are being recorded; a nil recorder never
// records.
func (r *recorder) tracking() bool { return r != nil && r.on.Load() }

// enable switches recording on or off; a nil recorder stays off.
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func inputAddr(in []field.Elem) *field.Elem {
	if len(in) == 0 {
		return nil
	}
	return &in[0]
}

// tracedMaster wraps a scheme.Master and records one span per round and
// per FinishIteration. It also keeps, whether or not tracing is on, the
// start time of every round and the inputs and outputs of the rounds the
// caller asked to keep (the training workload checks those decodes).
type tracedMaster struct {
	inner scheme.Master
	rec   *recorder

	// onRound, when set, runs before every round starts.
	onRound func(key string, iter int)

	mu     sync.Mutex
	rounds []roundNote
	keep   func(key string, iter int) bool
	kept   []keptRound
}

// roundNote is the always-on per-round record.
type roundNote struct {
	key        string
	start, end time.Time
	batch      int
	used, byz  int
	stragglers int
	err        error
}

// keptRound is a round whose decode the caller checks afterwards.
type keptRound struct {
	key           string
	input, output []field.Elem
}

// traceMaster wraps m and forwards every optional interface m implements
// (scheme.Adaptive, scheme.Elastic, commit.DigestProvider), so a service
// or trainer built on the wrapper takes the same code paths as on m.
func traceMaster(m scheme.Master, rec *recorder) (scheme.Master, *tracedMaster) {
	t := &tracedMaster{inner: m, rec: rec}
	a, isA := m.(scheme.Adaptive)
	e, isE := m.(scheme.Elastic)
	d, isD := m.(commit.DigestProvider)
	switch {
	case isA && isE && isD:
		return struct {
			*tracedMaster
			scheme.Adaptive
			scheme.Elastic
			commit.DigestProvider
		}{t, a, e, d}, t
	case isA && isE:
		return struct {
			*tracedMaster
			scheme.Adaptive
			scheme.Elastic
		}{t, a, e}, t
	case isA && isD:
		return struct {
			*tracedMaster
			scheme.Adaptive
			commit.DigestProvider
		}{t, a, d}, t
	case isE && isD:
		return struct {
			*tracedMaster
			scheme.Elastic
			commit.DigestProvider
		}{t, e, d}, t
	case isA:
		return struct {
			*tracedMaster
			scheme.Adaptive
		}{t, a}, t
	case isE:
		return struct {
			*tracedMaster
			scheme.Elastic
		}{t, e}, t
	case isD:
		return struct {
			*tracedMaster
			commit.DigestProvider
		}{t, d}, t
	}
	return t, t
}

func (t *tracedMaster) Name() string                   { return t.inner.Name() }
func (t *tracedMaster) SetExecutor(e cluster.Executor) { t.inner.SetExecutor(e) }
func (t *tracedMaster) Workers() []*cluster.Worker     { return t.inner.Workers() }
func (t *tracedMaster) notes() []roundNote {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]roundNote(nil), t.rounds...)
}
func (t *tracedMaster) keptRounds() []keptRound {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]keptRound(nil), t.kept...)
}

// beginRound opens the round span when tracing is on.
func (t *tracedMaster) beginRound(key string, batch int, start time.Time) int {
	if !t.rec.tracking() {
		return -1
	}
	id := t.rec.add(span{Name: "master.round", Start: t.rec.ns(start), Parent: -1, Count: int64(batch), Key: key})
	t.rec.curRound.Store(int64(id))
	return id
}

func (t *tracedMaster) endRound(id int, inputs [][]field.Elem, note roundNote) {
	t.mu.Lock()
	t.rounds = append(t.rounds, note)
	t.mu.Unlock()
	if id < 0 {
		return
	}
	t.rec.mu.Lock()
	t.rec.spans[id].End = t.rec.ns(note.end)
	t.rec.mu.Unlock()
	// One queue-membership span per request the round carried: it links the
	// request ID to the round span, so queue wait and resolve are derivable.
	for _, in := range inputs {
		if v, ok := t.rec.reqs.Load(inputAddr(in)); ok {
			t.rec.add(span{Name: "round.member", Start: t.rec.ns(note.start), End: t.rec.ns(note.end), Parent: id, Req: v.(uint64)})
		}
	}
}

func (t *tracedMaster) keepRound(key string, iter int, in, out []field.Elem) {
	if t.keep == nil || !t.keep(key, iter) {
		return
	}
	t.mu.Lock()
	t.kept = append(t.kept, keptRound{key: key,
		input: append([]field.Elem(nil), in...), output: append([]field.Elem(nil), out...)})
	t.mu.Unlock()
}

func (t *tracedMaster) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	if t.onRound != nil {
		t.onRound(key, iter)
	}
	start := time.Now()
	id := t.beginRound(key, 1, start)
	out, err := t.inner.RunRound(ctx, key, input, iter)
	note := roundNote{key: key, start: start, end: time.Now(), batch: 1, err: err}
	if err == nil {
		note.used, note.byz, note.stragglers = len(out.Used), len(out.Byzantine), out.StragglersObserved
		t.keepRound(key, iter, input, out.Decoded)
	}
	t.endRound(id, nil, note)
	return out, err
}

func (t *tracedMaster) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	if t.onRound != nil {
		t.onRound(key, iter)
	}
	start := time.Now()
	id := t.beginRound(key, len(inputs), start)
	out, err := t.inner.RunRoundBatch(ctx, key, inputs, iter)
	note := roundNote{key: key, start: start, end: time.Now(), batch: len(inputs), err: err}
	if err == nil {
		note.used, note.byz, note.stragglers = len(out.Used), len(out.Byzantine), out.StragglersObserved
	}
	t.endRound(id, inputs, note)
	return out, err
}

func (t *tracedMaster) FinishIteration(iter int) (float64, bool) {
	start := time.Now()
	cost, recoded := t.inner.FinishIteration(iter)
	if t.rec.tracking() {
		var n int64
		if recoded {
			n = 1
		}
		t.rec.add(span{Name: "master.finish", Start: t.rec.ns(start), End: t.rec.ns(time.Now()), Parent: -1, Count: n})
	}
	return cost, recoded
}

// tracedExec wraps a cluster.Executor with one span per round. Result
// arrival offsets are kept so the barrier wait (the time between the
// threshold-th arrival and the executor returning) is derivable.
type tracedExec struct {
	inner cluster.Executor
	rec   *recorder
	// threshold, when set, gives the results a round decodes from; it is
	// only set where arrival offsets are wall-clock time.
	threshold func() int
}

func (e *tracedExec) RunRound(ctx context.Context, key string, input []field.Elem, batch, iter int, active []int) []cluster.Result {
	if !e.rec.tracking() {
		return e.inner.RunRound(ctx, key, input, batch, iter, active)
	}
	start := time.Now()
	id := e.rec.add(span{Name: "exec.round", Start: e.rec.ns(start), Parent: int(e.rec.curRound.Load()), Count: int64(len(active)), Key: key})
	e.rec.curExec.Store(int64(id))
	results := e.inner.RunRound(ctx, key, input, batch, iter, active)
	end := time.Now()
	e.rec.mu.Lock()
	e.rec.spans[id].End = e.rec.ns(end)
	e.rec.mu.Unlock()
	if e.threshold != nil {
		if th := e.threshold(); th > 0 && th <= len(results) {
			at := start.Add(time.Duration(results[th-1].ArriveAt * float64(time.Second)))
			e.rec.add(span{Name: "exec.threshold", Start: e.rec.ns(at), End: e.rec.ns(end), Parent: id})
		}
	}
	return results
}

// timedOp wraps a worker's cluster.Op with one compute span per call.
type timedOp struct {
	inner  cluster.Op
	rec    *recorder
	worker int
}

func (o *timedOp) Degree() int { return o.inner.Degree() }

func (o *timedOp) record(start time.Time, ops float64) {
	if !o.rec.tracking() {
		return
	}
	o.rec.add(span{Name: "worker.compute", Start: o.rec.ns(start), End: o.rec.ns(time.Now()),
		Parent: int(o.rec.curExec.Load()), Worker: o.worker, Count: int64(ops)})
}

func (o *timedOp) Apply(f *field.Field, sh *fieldmat.Matrix, in []field.Elem) ([]field.Elem, float64, error) {
	start := time.Now()
	out, ops, err := o.inner.Apply(f, sh, in)
	o.record(start, ops)
	return out, ops, err
}

// timedBatchOp adds the cluster.BatchOp method when the wrapped op has it,
// so a traced worker still takes the batched kernel.
type timedBatchOp struct{ *timedOp }

func (o timedBatchOp) ApplyBatch(f *field.Field, sh *fieldmat.Matrix, in []field.Elem, batch int) ([]field.Elem, float64, error) {
	start := time.Now()
	out, ops, err := o.inner.(cluster.BatchOp).ApplyBatch(f, sh, in, batch)
	o.record(start, ops)
	return out, ops, err
}

// wrapOp returns op wrapped by wrap, keeping cluster.BatchOp if op has it.
func wrapOp(op cluster.Op, wrap *timedOp) cluster.Op {
	wrap.inner = op
	if _, ok := op.(cluster.BatchOp); ok {
		return timedBatchOp{wrap}
	}
	return wrap
}

// workerOp returns the op a worker runs for key (MatVecOp when unset, as
// cluster.Worker does).
func workerOp(w *cluster.Worker, key string) cluster.Op {
	if op, ok := w.Ops[key]; ok && op != nil {
		return op
	}
	return cluster.MatVecOp{}
}

// instrumentWorkers wraps every worker's op for each key with a compute span.
func instrumentWorkers(workers []*cluster.Worker, keys []string, rec *recorder) {
	for _, w := range workers {
		for _, key := range keys {
			w.Ops[key] = wrapOp(workerOp(w, key), &timedOp{rec: rec, worker: w.ID})
		}
	}
}
