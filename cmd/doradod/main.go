// Doradod serves a fleet of simulated Dorados over HTTP/JSON: many
// concurrently simulated machines behind one scheduler, the service shape
// the ROADMAP's related work argues scales — parallel deployment of simple
// processors rather than one faster one.
//
// Each session is one machine built through the dorado.New facade.
// Operations on a session are serialized; different sessions run in
// parallel on a bounded worker pool. Full queues reject with 429 (back
// off and retry), idle sessions are parked to snapshots and revived on
// demand, and SIGINT/SIGTERM (or POST /v1/drain) drains gracefully:
// in-flight operations finish, new ones get 503.
//
// With -store DIR the fleet survives restarts: parked snapshots land in a
// content-addressed store under DIR, a graceful drain parks every live
// session into it, and the next doradod over the same DIR lists those
// sessions as parked and revives each lazily on first touch. Any stored
// snapshot hash can also seed a brand-new session ({"from":"<hash>"} on
// POST /v1/sessions). The store garbage-collects itself: a periodic
// sweeper (-gc-every) reclaims snapshots no session references once they
// are older than -gc-age, and POST /v1/store/gc runs a sweep on demand.
// GET /v1/store reports the store's inventory. Sessions created with a
// "webhook" URL get every run completion POSTed there — gated by the
// -webhook-allow origin allowlist, with at most 32 of a session's
// completions in delivery at once and the rest dead-lettered (still
// pollable at GET .../runs/{rid}). docs/OPERATIONS.md is the operator
// runbook for all of this.
//
// Usage:
//
//	doradod [flags]
//
//	-addr ADDR            listen address (default 127.0.0.1:7480)
//	-workers N            worker goroutines (default GOMAXPROCS)
//	-max-sessions N       session limit (default 64)
//	-queue N              per-session operation queue depth (default 8)
//	-idle-evict DUR       park sessions idle this long, 0 disables
//	                      (default 5m)
//	-store DIR            durable snapshot store directory; parked
//	                      sessions persist across restarts (default
//	                      none: snapshots stay in memory)
//	-gc-age DUR           store GC: reclaim snapshots unreferenced by
//	                      the manifest and older than DUR; 0 reclaims
//	                      unreferenced snapshots immediately (default
//	                      24h)
//	-gc-every DUR         store GC sweep interval; 0 disables the
//	                      periodic sweeper (POST /v1/store/gc still
//	                      works) (default 1h)
//	-webhook-allow LIST   comma-separated origin allowlist for session
//	                      webhooks, e.g. "https://hooks.example.com";
//	                      "*" allows any origin (default empty:
//	                      webhooks rejected)
//	-drain-timeout DUR    shutdown grace period (default 30s)
//	-log-level LEVEL      structured-log verbosity: debug, info, warn,
//	                      error, or off (default info; debug adds one
//	                      record per fleet operation with its queue-wait
//	                      and service-time split)
//
// The API (see internal/fleet.Server for the route list). Sessions can
// mount I/O controllers at creation — pass "devices" with catalog names
// (disk, ethernet, display, scanner, loopback, pulse; see docs/API.md
// §7a) and the machine is built with them attached; devices survive
// park/revive because they are part of the session's Spec:
//
//	curl -X POST localhost:7480/v1/sessions -d '{"language":"mesa","metrics":true}'
//	curl -X POST localhost:7480/v1/sessions -d '{"devices":[{"name":"disk","start":"disk"}]}'
//	curl -X POST localhost:7480/v1/sessions/s1/boot -d '{"source":"return 6*7;"}'
//	curl -X POST localhost:7480/v1/sessions/s1/runs -d '{"cycles":100000}'
//	curl localhost:7480/v1/sessions/s1/runs/r1        # poll the async run
//	curl -X POST localhost:7480/v1/sessions/s1/park   # snapshot + evict now
//	curl localhost:7480/v1/sessions/s1
//	curl localhost:7480/v1/sessions/s1/trace          # Chrome trace_event JSON
//	curl localhost:7480/v1/sessions/s1/obs            # wakeup/latency summary
//	curl -N localhost:7480/v1/sessions/s1/events      # live SSE stats stream
//	curl localhost:7480/metrics
//
// Profiling: sessions created with {"profile":true} carry a
// microarchitectural profiler (add {"translation":true} for the
// superblock translator whose abort accounting the profile explains).
// GET /v1/sessions/{id}/profile serves gzipped pprof — `go tool pprof
// 'http://localhost:7480/v1/sessions/s1/profile'` opens it directly, hot
// microaddresses named by their masm symbols — and ?format=json the
// symbolized document (render offline with cmd/profview).
// GET /v1/profile merges every profiled session into one fleet-wide
// profile. See docs/OPERATIONS.md ("Profiling a live fleet"):
//
//	curl -X POST localhost:7480/v1/sessions -d '{"profile":true,"translation":true}'
//	go tool pprof 'http://localhost:7480/v1/sessions/s1/profile'
//	curl 'localhost:7480/v1/sessions/s1/profile?format=json' | profview /dev/stdin
//	curl 'localhost:7480/v1/profile'                  # fleet-wide merge
//
// Runs: POST /v1/sessions/{id}/runs answers 202 with a run id at
// admission, the result is pollable at GET /v1/sessions/{id}/runs/{rid},
// and the completion also arrives as a "run" event on the session's SSE
// stream. In-process callers that want to block (simbench -fleet) use
// fleet.Manager.Run, which waits on the same machinery.
//
// Observability rides on the same listener: /metrics is the Prometheus
// scrape target (fleet counters, per-operation queue-wait and service-time
// histograms, per-session cycle counters), /healthz reports session counts
// by state, /debug/vars is expvar, /debug/pprof is the usual profiler
// surface. Sessions created with "metrics":true additionally serve the
// per-session trace, obs, and events endpoints above. Logs are structured
// (log/slog, text format, one line per HTTP request at info; one line per
// fleet operation at debug) with request ids correlating the two.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dorado/internal/fleet"
	"dorado/internal/obs"
	"dorado/internal/store"
)

// parseLogLevel maps the -log-level flag onto a slog handler; "off"
// returns nil, which disables both the access log and the operation log.
func parseLogLevel(s string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(s) {
	case "off", "none":
		return nil, nil
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q", s)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7480", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines executing session operations")
	maxSessions := flag.Int("max-sessions", 64, "maximum live+parked sessions")
	queue := flag.Int("queue", 8, "per-session operation queue depth")
	idle := flag.Duration("idle-evict", 5*time.Minute, "park sessions idle this long (0 disables)")
	storeDir := flag.String("store", "", "durable snapshot store directory (empty: in-memory parking only)")
	gcAge := flag.Duration("gc-age", 24*time.Hour, "reclaim unreferenced snapshots older than this (0: immediately)")
	gcEvery := flag.Duration("gc-every", time.Hour, "periodic store GC sweep interval (0: disable the sweeper)")
	webhookAllow := flag.String("webhook-allow", "", `comma-separated webhook origin allowlist ("*": any; empty: reject all)`)
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown grace period")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error, off")
	flag.Parse()

	logger, err := parseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	var snapStore *store.Store
	if *storeDir != "" {
		if snapStore, err = store.Open(*storeDir); err != nil {
			fatal(err)
		}
	}
	// Flag zero means "now"/"off"; Config zero means "use the default" —
	// translate so the flag surface stays the intuitive one.
	gcAgeCfg, gcEveryCfg := *gcAge, *gcEvery
	if gcAgeCfg <= 0 {
		gcAgeCfg = -1 // reclaim unreferenced snapshots regardless of age
	}
	if gcEveryCfg <= 0 {
		gcEveryCfg = -1 // no periodic sweeper; POST /v1/store/gc only
	}
	var allow []string
	for _, o := range strings.Split(*webhookAllow, ",") {
		if o = strings.TrimSpace(o); o != "" {
			allow = append(allow, o)
		}
	}
	mgr := fleet.New(fleet.Config{
		Workers:      *workers,
		MaxSessions:  *maxSessions,
		QueueDepth:   *queue,
		IdleAfter:    *idle,
		Logger:       logger,
		Store:        snapStore,
		GCMaxAge:     gcAgeCfg,
		GCEvery:      gcEveryCfg,
		WebhookAllow: allow,
	})
	srv := fleet.NewServer(mgr)
	srv.DrainTimeout = *drainTimeout
	obs.RegisterDebug(srv.Mux())
	expvar.Publish("fleet_sessions", expvar.Func(func() any { return mgr.Sessions() }))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	fmt.Printf("doradod: serving on http://%s (%d workers, %d sessions max)\n",
		ln.Addr(), *workers, *maxSessions)
	if snapStore != nil {
		fmt.Printf("doradod: durable store at %s (%d stored sessions adopted)\n",
			snapStore.Dir(), len(snapStore.Sessions()))
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("doradod: %v, draining\n", sig)
	case err := <-errc:
		fatal(err)
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	if err := mgr.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "doradod: drain: %v\n", err)
	}
	cancelDrain()
	// Fresh budget for the HTTP listener: a slow drain must not leave
	// Shutdown an already-expired context and cut off in-flight responses.
	shutCtx, cancelShut := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "doradod: shutdown: %v\n", err)
	}
	fmt.Println("doradod: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doradod:", err)
	os.Exit(1)
}
