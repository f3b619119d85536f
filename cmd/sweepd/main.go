// Command sweepd is the sweep-as-a-service daemon. One binary, two
// modes:
//
//	sweepd -listen :8080 -data-dir /var/lib/sweepd -token $T
//	    serve: accept matrix jobs over HTTP, run each as one sweep on a
//	    local worker pool, stream progress, serve results, and share a
//	    content-addressed result cache across jobs (size-capped via
//	    -cache-max-bytes). With -data-dir, specs and completed replicas
//	    persist through a checksummed journal: a restarted — even
//	    kill -9'd — server reloads its jobs and resumes them
//	    byte-identically. At most -max-jobs jobs run at once; the rest
//	    wait in one FIFO queue. With -token, submit and cancel require
//	    the bearer token. SIGINT/SIGTERM drains gracefully: admission
//	    stops, running and queued jobs finish, then the process exits.
//
//	sweepd -local -matrix m.json -format csv
//	    local: run the same JSON matrix in-process and print it to
//	    stdout through the server's format table — the reference the
//	    served bytes must equal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"patch"
	"patch/service"
)

// serveConfig carries the serve-mode flags.
type serveConfig struct {
	listen        string
	cacheDir      string
	cacheMaxBytes int64
	dataDir       string
	token         string
	maxJobs       int
	workers       int
	drainTimeout  time.Duration
}

func main() {
	var sc serveConfig
	flag.StringVar(&sc.listen, "listen", ":8080", "serve mode: listen address")
	flag.StringVar(&sc.cacheDir, "cache", "", "serve mode: on-disk result cache directory (empty: <data-dir>/cache, or memory only without -data-dir)")
	flag.Int64Var(&sc.cacheMaxBytes, "cache-max-bytes", 0, "serve mode: disk result-cache size cap; oldest-accessed entries evicted (0: unbounded)")
	flag.StringVar(&sc.dataDir, "data-dir", "", "serve mode: durable job store directory — specs and completed replicas survive a restart (empty: jobs are forgotten on restart)")
	flag.IntVar(&sc.maxJobs, "max-jobs", 2, "serve mode: concurrently running jobs; excess submissions wait in one FIFO queue")
	flag.IntVar(&sc.workers, "workers", 0, "serve/local mode: worker-pool size per job (0: GOMAXPROCS)")
	flag.DurationVar(&sc.drainTimeout, "drain-timeout", time.Minute, "serve mode: how long to let jobs finish on SIGTERM before cancelling")
	flag.StringVar(&sc.token, "token", "", "serve mode: require this bearer token on submit and cancel")

	local := flag.Bool("local", false, "local mode: run -matrix in-process and print to stdout")
	matrixFile := flag.String("matrix", "", "local mode: matrix JSON file (\"-\": stdin)")
	format := flag.String("format", "csv", "local mode: output format: csv, json, markdown, chart")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if *local {
		err = runLocal(ctx, *matrixFile, *format, sc.workers)
	} else {
		err = serve(ctx, sc)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func serve(ctx context.Context, sc serveConfig) error {
	cacheDir := sc.cacheDir
	if cacheDir == "" && sc.dataDir != "" {
		cacheDir = filepath.Join(sc.dataDir, "cache")
	}
	cache, err := service.NewResultCache(cacheDir, service.MaxDiskBytes(sc.cacheMaxBytes))
	if err != nil {
		return err
	}
	var store *service.JobStore
	if sc.dataDir != "" {
		if store, err = service.OpenJobStore(sc.dataDir); err != nil {
			return err
		}
	}
	srv := service.New(service.Config{
		MaxJobs: sc.maxJobs,
		Workers: sc.workers,
		Cache:   cache,
		Store:   store,
		Token:   sc.token,
	})
	if restored, err := srv.Restore(); err != nil {
		return err
	} else if restored > 0 {
		log.Printf("sweepd: restored %d persisted jobs from %s", restored, sc.dataDir)
	}
	hs := &http.Server{Addr: sc.listen, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		log.Printf("sweepd: serving on %s (cache: %s, jobs: %s)",
			sc.listen, cacheOrMem(cacheDir), cacheOrMem(sc.dataDir))
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("sweepd: draining (up to %s)...", sc.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), sc.drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("sweepd: drain incomplete, jobs cancelled: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	return hs.Shutdown(sctx)
}

func cacheOrMem(dir string) string {
	if dir == "" {
		return "memory only"
	}
	return dir
}

func runLocal(ctx context.Context, matrixFile, format string, workers int) error {
	if matrixFile == "" {
		return errors.New("-local needs -matrix FILE (\"-\" for stdin)")
	}
	out, err := service.LookupFormat(format)
	if err != nil {
		return err
	}
	var rd io.Reader = os.Stdin
	if matrixFile != "-" {
		f, err := os.Open(matrixFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rd = f
	}
	var m patch.Matrix
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("bad matrix: %w", err)
	}
	_, err = patch.Sweep(ctx, m, patch.Workers(workers), patch.EmitTo(out.New(os.Stdout)))
	return err
}
