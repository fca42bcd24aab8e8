// Command gatewayd serves the multi-tenant query gateway: SQL over
// HTTP/JSON from many concurrent clients, with API-key authentication,
// per-tenant capability checks, bounded admission and per-tenant goal
// tuning over one engine (see internal/gateway).
//
// Usage:
//
//	gatewayd -config tenants.json [-addr :8080] [-audit audit.jsonl]
//
// On SIGINT/SIGTERM the daemon drains: admission closes (new queries get
// 503 draining), every accepted query completes and lands its audit
// record, the tuner and autoscaler stop, and only then does the listener
// close — no accepted query is ever dropped by a shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func main() {
	configPath := flag.String("config", "", "tenant config JSON (required)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	auditPath := flag.String("audit", "", "append audit records as JSON lines to this file")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight queries on shutdown")
	shards := flag.Int("shards", -1, "override the config's shard count (0/1 = unsharded)")
	shardMode := flag.String("shard-mode", "", "override the partitioning mode (hash or range)")
	autoscale := flag.Bool("autoscale", false, "enable the elastic autoscaler regardless of the config")
	dryRun := flag.Bool("autoscale-dry-run", false, "audit autoscale proposals without applying them")
	flag.Parse()

	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "gatewayd: -config is required")
		flag.Usage()
		os.Exit(2)
	}
	ov := overrides{shards: *shards, shardMode: *shardMode, autoscale: *autoscale, dryRun: *dryRun}
	if err := run(*configPath, *addr, *auditPath, *drainTimeout, ov); err != nil {
		fmt.Fprintln(os.Stderr, "gatewayd:", err)
		os.Exit(1)
	}
}

// overrides are command-line toggles layered over the config file.
type overrides struct {
	shards    int
	shardMode string
	autoscale bool
	dryRun    bool
}

func (ov overrides) apply(cfg *gateway.Config) error {
	if ov.shards >= 0 {
		cfg.Shards = ov.shards
	}
	if ov.shardMode != "" {
		cfg.ShardMode = ov.shardMode
	}
	if ov.autoscale {
		cfg.Autoscale = true
	}
	if ov.dryRun {
		cfg.AutoscaleDryRun = true
	}
	return cfg.Normalize()
}

func run(configPath, addr, auditPath string, drainTimeout time.Duration, ov overrides) error {
	cfg, err := gateway.LoadConfig(configPath)
	if err != nil {
		return err
	}
	if err := ov.apply(&cfg); err != nil {
		return err
	}
	opts := gateway.Options{Config: cfg}
	if auditPath != "" {
		f, err := os.OpenFile(auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.AuditSink = f
	}

	g, err := gateway.New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: g}
	// conflint:worker lifecycle=external HTTP listener lives for the whole process; the shutdown sequence below stops it
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "gatewayd: serve:", err)
		}
	}()
	fmt.Printf("gatewayd: %d tenants on http://%s (system %s, scale %g); loading catalog...\n",
		len(cfg.Tenants), ln.Addr(), cfg.System, cfg.Scale)
	if cfg.Shards > 1 || cfg.Autoscale {
		fmt.Printf("gatewayd: sharding %d×%s, pool %d, autoscale=%v dry-run=%v\n",
			cfg.Shards, cfg.ShardMode, cfg.ShardPool, cfg.Autoscale, cfg.AutoscaleDryRun)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	if err := g.WaitReady(ctx); err != nil {
		if ctx.Err() != nil {
			fmt.Println("gatewayd: interrupted during load")
			return shutdown(g, srv, drainTimeout)
		}
		return err
	}
	fmt.Printf("gatewayd: ready in %.1fs\n", time.Since(start).Seconds())

	<-ctx.Done()
	fmt.Println("gatewayd: draining...")
	return shutdown(g, srv, drainTimeout)
}

// shutdown runs the ordered drain: gateway first (admission closed,
// in-flight queries completed and audited, tuner and autoscaler joined),
// listener last.
func shutdown(g *gateway.Gateway, srv *http.Server, drainTimeout time.Duration) error {
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := g.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "gatewayd: drain:", err)
	}
	srvCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := srv.Shutdown(srvCtx); err != nil {
		return err
	}
	s := g.Stats()
	fmt.Printf("gatewayd: done — %d accepted, %d rejected, %d retunes\n", s.Accepted, s.Rejected, s.Retunes)
	if sh := s.Sharding; sh != nil {
		fmt.Printf("gatewayd: cluster — %d shards (%s), pool %d, %d reshards, %d fallbacks\n",
			sh.Shards, sh.Mode, sh.Pool, sh.Reshards, sh.Fallbacks)
	}
	return nil
}
