package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/gateway"
	"repro/internal/shard"
)

// lab is one serving workload's system under test: a loaded engine
// behind a gateway behind a real http.Server on a loopback port, plus
// the client the load goes through.
type lab struct {
	w       *workload
	cfg     gateway.Config
	backend *gateway.Backend
	gw      *gateway.Gateway
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client

	queries []query
	cycle   []int

	shardNew time.Duration // time shard.New took (0 when unsharded)
}

// setUp brings the system up to "ready for the first request": data
// generation, statistics, the P configuration, the query pools, the
// shard cluster if any, the gateway and its listener. This is what
// setup_s times; the oracle is benchmark-side and is not part of it.
// A non-nil tracer wraps the server's handler in the span middleware.
func setUp(w *workload, tr *tracer) (*lab, error) {
	cfg, err := w.gatewayConfig()
	if err != nil {
		return nil, err
	}
	backend, err := gateway.BuildBackend(cfg)
	if err != nil {
		return nil, err
	}
	l := &lab{w: w, cfg: cfg, backend: backend, served: make(chan error, 1)}
	if cfg.Shards > 1 {
		// Built here rather than by the gateway so the traced run can
		// call the same cluster's public functions.
		start := time.Now()
		cl, err := shard.New(backend.Engine, shard.Spec{Shards: cfg.Shards, Mode: shard.Mode(cfg.ShardMode)}, cfg.ShardPool)
		if err != nil {
			return nil, err
		}
		l.shardNew = time.Since(start)
		backend.Cluster = cl
	}
	l.queries, l.cycle = w.mix(backend.Pools)

	l.gw, err = gateway.New(gateway.Options{Config: cfg, Backend: backend})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := l.gw.WaitReady(ctx); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = l.gw
	if tr != nil {
		handler = tr.middleware(handler)
	}
	l.srv = &http.Server{Handler: handler}
	// conflint:worker lifecycle=external HTTP server; lab.close calls srv.Shutdown and receives its exit from served (buffered)
	go func() { l.served <- l.srv.Serve(ln) }()
	l.url = "http://" + ln.Addr().String() + "/v1/query"
	n := openSenders() // every sender keeps its connection alive
	l.client = &http.Client{Transport: &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n}}
	return l, nil
}

// close drains the gateway, stops the server and waits for its
// goroutines; the lab is unusable afterwards.
func (l *lab) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	l.client.CloseIdleConnections()
	err := l.gw.Shutdown(ctx)
	if cerr := l.srv.Shutdown(ctx); err == nil {
		err = cerr
	}
	if serr := <-l.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("closing lab: %w", err)
	}
	return nil
}

// timeSetUps sets the workload up n times, tearing each down except the
// last, and returns the last lab and the steady set-up time.
func timeSetUps(w *workload, n int) (*lab, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		l, err := setUp(w, nil)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == n-1 {
			return l, steadySetUp(secs), nil
		}
		if err := l.close(); err != nil {
			return nil, 0, err
		}
	}
}
