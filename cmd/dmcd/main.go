// Command dmcd is the distributed-model-checking daemon: an HTTP+JSON
// service answering dmc-style queries over a persistent worker pool, with
// process-lifetime DP caches shared across requests. Answers are
// bit-identical to one-shot dmc runs.
//
//	dmcd -addr :8090 &
//	curl -s localhost:8090/v1/check -d '{
//	  "graph": "0 1\n1 2\n2 3\n",
//	  "problem": "acyclic",
//	  "d": 3
//	}'
//	curl -s localhost:8090/v1/stats
//
// On SIGINT/SIGTERM the daemon drains: /healthz turns 503 (so load
// balancers stop routing), new checks are refused, in-flight solves finish
// (bounded by -drain-grace), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dmcd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8090", "listen address")
	workers := flag.Int("workers", 0, "CONGEST worker-pool size per request (0 = GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 0, "solves in flight (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "waiting requests beyond -max-concurrent before 429 (0 = 64)")
	timeout := flag.Duration("timeout", 0, "per-request solve timeout (0 = 30s)")
	composeCap := flag.Int("compose-cap", 0, "compose-memo entries per shared cache (0 = library default)")
	maxGraphBytes := flag.Int64("max-graph-bytes", 0, "request body limit (0 = 8 MiB)")
	maxFormulas := flag.Int("max-formulas", 0, "compiled-formula caches retained, LRU (0 = 64)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long to wait for in-flight solves on shutdown")
	flag.Parse()

	srv := serve.New(serve.Options{
		Workers:        *workers,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		ComposeCap:     *composeCap,
		MaxGraphBytes:  *maxGraphBytes,
		MaxFormulas:    *maxFormulas,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("dmcd: listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("dmcd: draining (grace %v)", *drainGrace)
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("dmcd: drained cleanly")
	return nil
}
