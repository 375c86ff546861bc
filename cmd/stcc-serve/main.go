// Command stcc-serve is the experiment service daemon: a long-lived
// HTTP/JSON front end over the experiment runner. Clients POST a
// registry name, a serialized spec, or a bare configuration to
// /v1/jobs, stream per-point progress over SSE, and read back results
// bit-identical to a local CLI run. Work is deduplicated against a
// shared content-addressed result cache and an in-flight singleflight
// layer, so concurrent identical submissions cost one simulation.
//
//	stcc-serve -addr :8080 -cache results/cache
//	stcc emit-spec fig4 | curl -sd @- localhost:8080/v1/jobs
//	curl -N localhost:8080/v1/jobs/job-000001/events
//
// A daemon started with -peers joins the distributed sweep fabric as a
// coordinator: cache-missing grid points are farmed to the listed peer
// daemons over the same /v1/jobs API, verified by fingerprint, and
// merged in deterministic order; any peer failure falls back to local
// execution. The /v1/cache endpoints expose the daemon's result store
// to remote clients (see internal/resultcache/remotestore).
//
//	stcc-serve -addr :8080 -cache results/cache -peers node1:8080,node2:8080
//
// SIGINT/SIGTERM drains: the listener closes, running jobs get -drain
// to finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/resultcache/fsstore"
	"repro/internal/server"
	"repro/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("stcc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	cacheDir := fs.String("cache", "", "result cache directory (empty: no cache)")
	queue := fs.Int("queue", 0, "job queue depth (0: default 16)")
	jobs := fs.Int("jobs", 0, "concurrent jobs (0: default 2)")
	workers := fs.Int("workers", 0, "concurrent simulations per job (0: all CPUs)")
	peers := fs.String("peers", "", "comma-separated peer daemons (host:port,...) to farm grid points to")
	drain := fs.Duration("drain", 30*time.Second, "shutdown grace period for running jobs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// server.Config reads 0 as "default"; a negative count would mean
	// all CPUs, the default depth or no job worker at all, so reject it.
	for _, f := range []struct {
		name string
		n    int
	}{{"queue", *queue}, {"jobs", *jobs}, {"workers", *workers}} {
		if f.n < 0 {
			fmt.Fprintf(stderr, "stcc-serve: -%s must be >= 0, got %d\n", f.name, f.n)
			return 2
		}
	}

	logger := log.New(stderr, "stcc-serve: ", log.LstdFlags)

	cfg := server.Config{
		QueueDepth:   *queue,
		JobWorkers:   *jobs,
		PointWorkers: *workers,
		Logf:         logger.Printf,
	}
	if *cacheDir != "" {
		cache, err := fsstore.New(*cacheDir)
		if err != nil {
			logger.Print(err)
			return 1
		}
		cfg.Cache = cache
		logger.Printf("result cache at %s", cache.Dir())
	}
	if list := dispatch.ParsePeers(*peers); len(list) > 0 {
		co, err := dispatch.New(dispatch.Config{Peers: list})
		if err != nil {
			logger.Print(err)
			return 1
		}
		cfg.Dispatch = co
		logger.Printf("dispatching to peers %v", co.Peers())
	}

	srv := server.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("%s listening on %s", version.Get(), *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// Listener died before any signal (port in use, etc).
		logger.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	logger.Printf("shutting down: draining jobs for up to %s", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
		code = 1
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("job drain: %v (running jobs canceled)", err)
		code = 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, err)
		code = 1
	}
	logger.Print("bye")
	return code
}
