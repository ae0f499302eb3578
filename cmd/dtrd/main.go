// Command dtrd is the routing-as-a-service daemon: it keeps topologies and
// their routing state hot behind an HTTP+JSON API, so route evaluations,
// failure what-ifs and weight searches cost an evaluation instead of a
// process start.
//
// Usage:
//
//	dtrd -addr 127.0.0.1:8080
//	dtrd -addr 127.0.0.1:0 -pool 8 -lease-timeout 2s
//
// The API lives under /v1 (see internal/dtrd); the standard telemetry
// surface — /metrics, /metrics.json, /manifest.json, /debug/pprof/* — is
// served on the same listener. On SIGINT/SIGTERM the daemon drains: new API
// requests get 503, in-flight requests and search jobs finish (bounded by
// -drain-timeout), then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dualtopo/internal/dtrd"
	"dualtopo/internal/obs"
)

// Connection timeouts. No write timeout: a what-if sweep or a pprof profile
// may take longer than any fixed bound to answer.
const (
	// readHeaderTimeout bounds how long a client may take to send headers.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds the whole request read, headers and body: 4 MiB,
	// the largest body any endpoint accepts, in 30 s is about 1 Mbit/s.
	readTimeout = 30 * time.Second
	// idleTimeout closes keep-alive connections that stay silent this long.
	idleTimeout = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtrd: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		pool         = flag.Int("pool", 0, "default per-topology session pool size (0 = GOMAXPROCS)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "how long a request waits for a pooled session (0 = 5s)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
	)
	flag.Parse()

	manifest := obs.NewManifest("dtrd", os.Args[1:])
	srv := dtrd.New(dtrd.Config{
		PoolSize:     *pool,
		LeaseTimeout: *leaseTimeout,
		Manifest:     manifest,
	})
	defer srv.Close()

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	// The stderr announcement is the machine-readable handle scripts grep
	// for, matching the obs metrics server's convention.
	log.Printf("listening on http://%s", lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(lis) }()

	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("draining (up to %s)", *drainTimeout)
	srv.Drain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.WaitIdle(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Print("stopped")
}
