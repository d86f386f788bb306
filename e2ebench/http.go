package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// The matrix avccserve serves: -rows/-cols/-seed as passed below. avccserve
// draws it as fieldmat.Rand(f, rand.New(rand.NewSource(seed)), rows, cols),
// so the benchmark rebuilds the same matrix as its reference.
const (
	httpRows      = 2880
	httpCols      = 96
	httpServeSeed = 1
)

// server is one avccserve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	gc     gcTrace
	stderr chan struct{} // closed when its standard error reaches EOF
}

// startServer launches avccserve on a free loopback port, with its shipped
// defaults apart from the matrix shape and seed. gctrace makes it report
// every GC cycle on standard error.
func startServer(bin string, gctrace bool) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-rows", strconv.Itoa(httpRows),
		"-cols", strconv.Itoa(httpCols), "-seed", strconv.Itoa(httpServeSeed))
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, stderr: make(chan struct{})}
	go func() {
		defer close(s.stderr)
		s.gc.consume(errPipe)
	}()
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("avccserve did not become healthy")
}

// stop asks the server to drain and waits for it to exit, killing it if it
// has not within 15 s.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stderr:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.stderr
	}
	s.cmd.Wait()
}

// statz is the part of avccserve's /statz the benchmark reads.
type statz struct {
	Service struct {
		Rounds, Requests, Recodes uint64
		Tenants                   []struct {
			Receipts struct{ Issued, Verified uint64 }
			Latency  struct {
				Count uint64
				Sum   float64
			}
		}
	} `json:"service"`
}

func (s *server) statz() (statz, error) {
	var st statz
	resp, err := http.Get(s.url + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// httpSnap is taken at every phase edge.
type httpSnap struct {
	st  statz
	cpu time.Duration
	err error
}

func (s *server) snap() any {
	st, err := s.statz()
	cpu, cerr := procCPU(s.cmd.Process.Pid)
	return httpSnap{st: st, cpu: cpu, err: errors.Join(err, cerr)}
}

// httpDo posts one matvec request and returns the decoded output. With
// tracing on it records the client span.
func httpDo(client *http.Client, url string, rec *recorder) doFunc {
	return func(ctx context.Context, id uint64, in []field.Elem) ([]field.Elem, error) {
		start := time.Now()
		out, err := postMatvec(ctx, client, url, in)
		if rec.tracking() {
			rec.add(span{Name: "http.request", Start: rec.ns(start), End: rec.ns(time.Now()), Parent: -1, Req: id})
		}
		return out, err
	}
}

func postMatvec(ctx context.Context, client *http.Client, url string, in []field.Elem) ([]field.Elem, error) {
	body, err := json.Marshal(struct {
		Input []field.Elem `json:"input"`
	}{in})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/matvec", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var out struct {
		Output []field.Elem `json:"output"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Output, nil
}

func runHTTPReceipts(cfg runConfig) (*result, error) {
	if cfg.avccserve == "" {
		return nil, errors.New("http-receipts needs -avccserve")
	}
	f := field.Default()
	x := fieldmat.Rand(f, rand.New(rand.NewSource(httpServeSeed)), httpRows, httpCols)
	rng := rand.New(rand.NewSource(cfg.seed))
	p := newPool(f, x, rng, 128)

	res := newResult()
	var setups []float64
	var srv *server
	for i := 0; i < setupRepeats(cfg, 5); i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(cfg.avccserve, cfg.trace); err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(60 * time.Second); err != nil {
			srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	res.metrics["setup_s"] = median(setups)
	res.detail["setup_s_samples"] = setups

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	d := &loadGen{do: httpDo(client, srv.url, rec), pool: p}
	fixed, sat := runPhases(cfg, d, servingPlan{rate: 40, callers: conns}, rng, rec, srv.snap)
	servingE2E(res, fixed, sat)
	res.detail["connections"] = conns

	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = rss
	end, ok := srv.snap().(httpSnap)
	if !ok || end.err != nil {
		return nil, fmt.Errorf("statz: %v", end.err)
	}
	res.metrics["master.recodes"] = float64(end.st.Service.Recodes)
	if !cfg.trace {
		return res, nil
	}
	_, _, tf := pooled(fixed, true)
	_, _, ts := pooled(sat, true)
	if err := httpLayers(res.metrics, srv, tf); err != nil {
		return nil, err
	}
	sl := map[string]float64{}
	if err := httpLayers(sl, srv, ts); err != nil {
		return nil, err
	}
	res.detail["sat_layers"] = finite(sl)
	return res, rec.write(spanPath(cfg, "http-receipts"))
}

// httpLayers derives some traced phases' per-layer metrics from avccserve's
// /statz and /proc counters at the phase edges and the client's records.
func httpLayers(m map[string]float64, srv *server, ps []*phase) error {
	var count, secs, requests, rounds, issued, verified, cpuMs, gcMs float64
	var client []float64
	var ops int
	for _, p := range ps {
		a, b := p.before.(httpSnap), p.after.(httpSnap)
		if a.err != nil || b.err != nil {
			return errors.Join(a.err, b.err)
		}
		for i, st := range []statz{a.st, b.st} {
			sign := float64(2*i - 1)
			requests += sign * float64(st.Service.Requests)
			rounds += sign * float64(st.Service.Rounds)
			for _, t := range st.Service.Tenants {
				count += sign * float64(t.Latency.Count)
				secs += sign * t.Latency.Sum
				issued += sign * float64(t.Receipts.Issued)
				verified += sign * float64(t.Receipts.Verified)
			}
		}
		cpuMs += float64(b.cpu-a.cpu) / 1e6
		gcMs += srv.gc.cpuMsBetween(p.from, p.to)
		ops += len(p.recs)
		for _, r := range p.recs {
			if r.ok {
				client = append(client, float64(r.end.Sub(r.sent))/1e6)
			}
		}
	}
	m["avccserve.service_mean_ms"] = secs / count * 1e3
	m["avccserve.http_mean_ms"] = mean(client) - m["avccserve.service_mean_ms"]
	m["avccserve.req_per_round"] = requests / rounds
	m["avccserve.cpu_ms_per_req"] = cpuMs / float64(ops)
	m["avccserve.receipts_verified_share"] = verified / issued
	m["coded.mean_ms"] = m["avccserve.service_mean_ms"]
	m["front.mean_ms"] = m["avccserve.http_mean_ms"]
	m["round.inputs_per_round"] = m["avccserve.req_per_round"]
	m["proc.cpu_ms_per_op"] = m["avccserve.cpu_ms_per_req"]
	m["proc.gc_cpu_fraction"] = gcMs / cpuMs
	return nil
}
