package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/registry"
)

// serviceArgs parses a -serve/-worker spec ("addr=:8080,checkpoint=c.jsonl")
// with the registry grammar every seam's spec uses, named after its mode:
// the key set is closed, so a typo fails loudly instead of being ignored.
func serviceArgs(mode, spec string) (*registry.Args, error) {
	s, err := registry.Parse(mode + ":" + spec)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", mode, err)
	}
	return registry.NewArgs("-"+mode, s), nil
}

// duration reads key as a duration of at least lo, or 0 when absent.
func duration(a *registry.Args, key string, lo time.Duration) time.Duration {
	s := a.Str(key, "")
	if s == "" {
		return 0
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < lo {
		a.Failf("parameter %s=%q is not a duration >= %v", key, s, lo)
	}
	return d
}

// signalCtx is the graceful-shutdown context shared by the service
// modes: SIGTERM/SIGINT cancel it, which drains the worker (finish the
// in-flight point, submit, exit) and shuts the coordinator's listener
// down without dropping journal writes in progress.
func signalCtx() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runServe is swsim -serve: the long-running coordinator.
//
//	swsim -serve 'addr=:8080,checkpoint=coord.jsonl,lease=15s,retries=3'
func runServe(spec string, stderr io.Writer) int {
	exit := exiter(stderr)
	a, err := serviceArgs("serve", spec)
	if err != nil {
		return exit(2, "%v", err)
	}
	addr := a.Str("addr", ":8080")
	opt := coord.ServerOptions{
		Checkpoint: a.Str("checkpoint", ""),
		LeaseTTL:   duration(a, "lease", time.Nanosecond),
		MaxRetries: a.NonNegativeInt("retries", -1), // 0 is meaningful: fail on first expiry
		Now:        time.Now,
		Log:        stderr,
	}
	if err := a.Finish(); err != nil {
		return exit(2, "%v", err)
	}
	if opt.Checkpoint == "" {
		return exit(2, "-serve requires checkpoint= (the journal completed records append to)")
	}

	s, err := coord.NewServer(opt)
	if err != nil {
		return exit(1, "%v", err)
	}
	// Headers arrive within ten seconds, so a trickling client cannot hold
	// a connection; bodies are bounded by coord.MaxRequestBytes.
	hs := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signalCtx()
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(stderr, "swsim: coordinator shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()
	fmt.Fprintf(stderr, "swsim: coordinator listening on %s (journal %s)\n", addr, opt.Checkpoint)
	err = hs.ListenAndServe()
	if cerr := s.Close(); err == nil || errors.Is(err, http.ErrServerClosed) {
		err = cerr
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return exit(1, "%v", err)
	}
	return 0
}

// runWorker is swsim -worker: the pull loop that leases points from a
// coordinator and simulates them.
//
//	swsim -worker 'url=http://host:8080,name=w1,exit=drain'
func runWorker(spec string, stderr io.Writer) int {
	exit := exiter(stderr)
	a, err := serviceArgs("worker", spec)
	if err != nil {
		return exit(2, "%v", err)
	}
	url, name, exitMode := a.Str("url", ""), a.Str("name", ""), a.Str("exit", "never")
	if exitMode != "drain" && exitMode != "never" {
		a.Failf("bad exit=%q (want drain or never)", exitMode)
	}
	w := &coord.Worker{
		ExitOnDrain:   exitMode == "drain",
		Stall:         duration(a, "stall", 0),
		EngineWorkers: a.NonNegativeInt("engine-workers", 0),
		Log:           stderr,
	}
	if err := a.Finish(); err != nil {
		return exit(2, "%v", err)
	}
	if url == "" {
		return exit(2, "-worker requires url= (the coordinator address)")
	}
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w.Client, w.Name = coord.NewClient(url), name
	ctx, stop := signalCtx()
	defer stop()
	n, err := w.Run(ctx)
	if err != nil {
		return exit(1, "worker %s: %v (after %d points)", name, err, n)
	}
	fmt.Fprintf(stderr, "swsim: worker %s: done (%d points)\n", name, n)
	return 0
}
