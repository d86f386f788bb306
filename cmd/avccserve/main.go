// Command avccserve is the multi-tenant HTTP serving front end over the
// coded-computing substrate: it deploys one coded master (any registered
// scheme, optionally sharded across independent worker groups) and serves
// concurrent matvec solves through scheme.Service, which coalesces them
// into batched verified rounds.
//
//	avccserve -addr :8080 -scheme avcc -rows 360 -cols 120 -batch 32 -shards 2
//
// Endpoints:
//
//	POST /v1/matvec   {"input": [w_0, ..., w_{cols-1}]}  (field elements)
//	                  → {"output": [...], "used": [...], "byzantine": [...]}
//	                  The tenant is taken from the X-Tenant header. With
//	                  receipts on (default), sending "X-Receipt: 1" adds
//	                  "receipt" (base64 of the round's committed-verification
//	                  receipt) and "receipt_column" (which batch column of it
//	                  this answer is) — verify offline with cmd/avccverify.
//	GET  /healthz     liveness probe
//	GET  /statz       service + per-tenant metrics (incl. receipt counters),
//	                  the public matrix digests receipts are bound to, plus a
//	                  per-shard-group section (seed slot, row span, worker
//	                  count, live coding state, EWMA round wall) and the
//	                  elastic policy counters when the deployment is sharded
//	                  (JSON; snapshotted under the shard master's topology
//	                  lock, so it is consistent against concurrent rebalances)
//
// With -rebalance the shard plane is ELASTIC: rows migrate between adjacent
// groups when their EWMA round walls diverge, and -max-groups > 0 lets the
// fleet add/retire whole groups from serving load:
//
//	avccserve -shards 4 -rebalance -min-groups 2 -max-groups 8 -scale-up-depth 16
//
// SIGINT/SIGTERM drains gracefully: admission stops, queued rounds finish,
// then the process exits.
package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	schemeName := flag.String("scheme", "avcc", "registered scheme name")
	rows := flag.Int("rows", 360, "model matrix rows")
	cols := flag.Int("cols", 120, "model matrix cols")
	n := flag.Int("n", 12, "worker count N per shard group")
	k := flag.Int("k", 9, "code dimension K")
	sBudget := flag.Int("s", 1, "straggler budget S")
	mBudget := flag.Int("m", 1, "Byzantine budget M")
	shards := flag.Int("shards", 1, "independent coded shard groups the rows are split across")
	batch := flag.Int("batch", scheme.DefaultMaxBatch, "max requests coalesced per coded round")
	linger := flag.Duration("linger", scheme.DefaultMaxLinger, "max wait to fill a round")
	seed := flag.Int64("seed", 1, "seed for the synthetic model matrix and coding")
	receipts := flag.Bool("receipts", true, "issue and audit committed-verification receipts")
	rebalance := flag.Bool("rebalance", false, "enable runtime row rebalancing across shard groups")
	rebalanceRatio := flag.Float64("rebalance-ratio", shard.DefaultRatio,
		"EWMA-wall imbalance between adjacent groups that triggers a row move")
	minGroups := flag.Int("min-groups", 1, "autoscale floor (with -max-groups)")
	maxGroups := flag.Int("max-groups", 0, "autoscale ceiling; 0 disables group autoscaling")
	scaleUpDepth := flag.Int("scale-up-depth", 0, "admission queue depth that adds a group (0 = off)")
	flag.Parse()

	var rc *shard.RebalanceConfig
	if *rebalance || *maxGroups > 0 {
		c := shard.DefaultRebalanceConfig()
		c.Ratio = *rebalanceRatio
		c.MinGroups, c.MaxGroups = *minGroups, *maxGroups
		c.ScaleUpDepth = *scaleUpDepth
		rc = &c
	}

	if err := run(*addr, *schemeName, *rows, *cols, *n, *k, *sBudget, *mBudget, *shards, *batch, *linger, *seed, *receipts, rc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// server is the HTTP layer over one serving deployment, extracted from run
// so the endpoint behaviour is testable with httptest against any master
// (real, sharded, or scripted).
type server struct {
	svc    *scheme.Service
	master scheme.Master
	f      *field.Field
	cols   int
}

func newServer(svc *scheme.Service, master scheme.Master, f *field.Field, cols int) *server {
	return &server{svc: svc, master: master, f: f, cols: cols}
}

// handler builds the endpoint mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matvec", s.matvec)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /statz", s.statz)
	return mux
}

// maxBodyBytes bounds a /v1/matvec request body: the JSON of cols field
// elements (at most 20 decimal digits each) with generous room for
// separators and whitespace. No valid request is larger, so the handler
// stops reading there instead of buffering whatever a client sends.
func maxBodyBytes(cols int) int64 { return 1024 + 64*int64(cols) }

func (s *server) matvec(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Input []field.Elem `json:"input"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes(s.cols))
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Input) != s.cols {
		http.Error(w, fmt.Sprintf("input length %d, want %d", len(req.Input), s.cols), http.StatusBadRequest)
		return
	}
	for i, v := range req.Input {
		if uint64(v) >= s.f.Q() {
			http.Error(w, fmt.Sprintf("input[%d] = %d outside the field", i, v), http.StatusBadRequest)
			return
		}
	}
	ctx := r.Context()
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		ctx = scheme.WithTenant(ctx, tenant)
	}
	out, err := s.svc.Submit(ctx, "fwd", req.Input).Wait(ctx)
	switch {
	case errors.Is(err, scheme.ErrServiceClosed), errors.Is(err, scheme.ErrQueueFull):
		// Both are "not now": draining or MaxPending overflow. 503 tells
		// load balancers to back off / retry elsewhere.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := map[string]any{
		"output":    out.Decoded,
		"used":      out.Used,
		"byzantine": out.Byzantine,
		"wall_sec":  out.Breakdown.Wall,
	}
	if r.Header.Get("X-Receipt") == "1" && out.Receipt != nil {
		// The receipt is opt-in per request: it covers the whole coded round
		// and is ~257 KiB at 2880x96 (its opened matrix columns dominate), so
		// only tenants that verify should pay the bytes.
		resp["receipt"] = base64.StdEncoding.EncodeToString(commit.EncodeReceipt(out.Receipt))
		resp["receipt_column"] = out.ReceiptColumn
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *server) statz(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"service": s.svc.Stats()}
	if dp, ok := s.master.(commit.DigestProvider); ok {
		if digests := dp.ReceiptDigests(); digests != nil {
			// The folded fingerprint per round key: what a tenant pins and
			// hands to avccverify -digest.
			folded := make(map[string]string, len(digests))
			for key, ds := range digests {
				folded[key] = commit.FoldDigests(ds)
			}
			resp["digests"] = folded
		}
	}
	if sm, ok := s.master.(scheme.Elastic); ok {
		// Snapshot and RebalanceStatus read under the shard master's topology
		// lock: the group list, spans, and coding state are one consistent
		// cut even while a rebalance or group add/retire runs concurrently.
		resp["shards"] = sm.Snapshot()
		resp["rebalance"] = sm.RebalanceStatus()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// The server's deadlines bound what one slow or stalled client can hold
// (a connection slot and a handler goroutine), each sized for the largest
// valid exchange rather than tuned:
//   - readHeaderTimeout: a client trickling its headers;
//   - readTimeout: the whole request, whose body maxBodyBytes caps at
//     1024 + 64·cols bytes;
//   - writeTimeout: from the end of the request headers to the last
//     response byte, so it covers queueing, the coded round and a ~257 KiB
//     receipt (~343 KiB as base64) to a slow client;
//   - idleTimeout: a keep-alive connection waiting for its next request.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// timeouts are an http.Server's deadlines; tests shorten them.
type timeouts struct{ readHeader, read, write, idle time.Duration }

// newHTTPServer serves h on addr under the deadlines t.
func newHTTPServer(addr string, h http.Handler, t timeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		WriteTimeout:      t.write,
		IdleTimeout:       t.idle,
	}
}

func run(addr, schemeName string, rows, cols, n, k, sBudget, mBudget, shards, batch int, linger time.Duration, seed int64, receipts bool, rc *shard.RebalanceConfig) error {
	f := field.Default()
	rng := rand.New(rand.NewSource(seed))
	x := fieldmat.Rand(f, rng, rows, cols)

	opts := []scheme.Option{
		scheme.WithCoding(n, k),
		scheme.WithBudgets(sBudget, mBudget, 0),
		scheme.WithSeed(seed),
		scheme.WithShards(shards),
		scheme.WithReceipts(receipts),
	}
	if rc != nil {
		opts = append(opts, scheme.WithRebalance(*rc))
	}
	master, err := scheme.New(schemeName, f, scheme.NewConfig(opts...),
		map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		var cfgErr *scheme.InvalidConfigError
		if errors.As(err, &cfgErr) {
			return fmt.Errorf("bad deployment parameters: %w", err)
		}
		return err
	}
	svc := scheme.NewService(master, scheme.ServiceConfig{MaxBatch: batch, MaxLinger: linger, AuditReceipts: receipts})

	srv := newServer(svc, master, f, cols)
	server := newHTTPServer(addr, srv.handler(), timeouts{
		readHeader: readHeaderTimeout, read: readTimeout, write: writeTimeout, idle: idleTimeout,
	})
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Printf("avccserve: %s over %q (%d,%d) x %d shard group(s) serving %dx%d matvec on %s (batch <= %d, linger %v)\n",
		master.Name(), schemeName, n, k, max(shards, 1), rows, cols, addr, batch, linger)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("avccserve: %v — draining\n", s)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := svc.Close(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	stats := svc.Stats()
	fmt.Printf("avccserve: drained (%d requests in %d rounds, %.2f req/round)\n",
		stats.Requests, stats.Rounds, float64(stats.Requests)/float64(max(stats.Rounds, 1)))
	return nil
}
