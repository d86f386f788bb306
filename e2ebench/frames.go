package main

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/rpccluster"
	"repro/internal/scheme"
)

// stragglerDelay is how long frames-straggler holds worker 0's compute.
const stragglerDelay = 20 * time.Millisecond

// delayOp holds a worker's compute for a fixed time before running the
// wrapped op, batched or not: a benchmark-side straggler.
type delayOp struct {
	inner interface {
		cluster.Op
		cluster.BatchOp
	}
	delay time.Duration
}

func (o delayOp) Degree() int { return o.inner.Degree() }

func (o delayOp) Apply(f *field.Field, sh *fieldmat.Matrix, in []field.Elem) ([]field.Elem, float64, error) {
	time.Sleep(o.delay)
	return o.inner.Apply(f, sh, in)
}

func (o delayOp) ApplyBatch(f *field.Field, sh *fieldmat.Matrix, in []field.Elem, batch int) ([]field.Elem, float64, error) {
	time.Sleep(o.delay)
	return o.inner.ApplyBatch(f, sh, in, batch)
}

func runFramesStraggler(cfg runConfig) (*result, error) {
	return runInProcess(cfg, "frames-straggler", 2880, 96, servingPlan{rate: 400, callers: 64},
		func(x *fieldmat.Matrix, rec *recorder) (*inprocDeployment, error) {
			f := field.Default()
			m, err := scheme.New("avcc", f, avccConfig(cfg.seed, false), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
			if err != nil {
				return nil, err
			}
			// Each endpoint owns its worker, holding a copy of the shard the
			// master shipped at deploy time, as a remote fleet would.
			var servers []*rpccluster.FrameServer
			stop := func() {
				for _, s := range servers {
					s.Close()
				}
			}
			var addrs []string
			var workers []*cluster.Worker
			for i, mw := range m.Workers() {
				w := cluster.NewWorker(i)
				w.Shards["fwd"] = mw.Shards["fwd"].Clone()
				if i == 0 {
					w.Ops["fwd"] = delayOp{cluster.MatVecOp{}, stragglerDelay}
				}
				srv, err := rpccluster.ServeFrames("127.0.0.1:0", f, w)
				if err != nil {
					stop()
					return nil, err
				}
				servers = append(servers, srv)
				addrs = append(addrs, srv.Addr)
				workers = append(workers, w)
			}
			fe, err := rpccluster.DialFrames(addrs, nil)
			if err != nil {
				stop()
				return nil, err
			}
			dep := &inprocDeployment{master: m}
			if rec != nil {
				traceExecution(m, fe, workers, []string{"fwd"}, rec, true)
				m, dep.tm = traceMaster(m, rec)
			} else {
				m.SetExecutor(fe)
			}
			dep.svc = scheme.NewService(m, scheme.ServiceConfig{})
			dep.close = func() {
				dep.svc.Close(context.Background())
				fe.Close()
				stop()
			}
			return dep, nil
		})
}
