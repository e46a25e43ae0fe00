package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
)

// parseKV parses a comma-separated key=value spec ("addr=:8080,
// checkpoint=coord.jsonl"). Values may contain '=' (only the first one
// splits) and the allowed key set is closed, so a typo fails loudly
// instead of being silently ignored.
func parseKV(flagName, spec string, allowed ...string) (map[string]string, error) {
	kv := map[string]string{}
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("-%s: bad pair %q (want key=value)", flagName, pair)
		}
		found := false
		for _, a := range allowed {
			if key == a {
				found = true
				break
			}
		}
		if !found {
			sort.Strings(allowed)
			return nil, fmt.Errorf("-%s: unknown key %q (allowed: %s)", flagName, key, strings.Join(allowed, ", "))
		}
		if _, dup := kv[key]; dup {
			return nil, fmt.Errorf("-%s: duplicate key %q", flagName, key)
		}
		kv[key] = val
	}
	return kv, nil
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
	kv, err := parseKV("serve", spec, "addr", "checkpoint", "lease", "retries")
	if err != nil {
		return exit(2, "%v", err)
	}
	addr := kv["addr"]
	if addr == "" {
		addr = ":8080"
	}
	opt := coord.ServerOptions{Checkpoint: kv["checkpoint"], Now: time.Now, Log: stderr}
	if opt.Checkpoint == "" {
		return exit(2, "-serve requires checkpoint= (the journal completed records append to)")
	}
	if v := kv["lease"]; v != "" {
		if opt.LeaseTTL, err = time.ParseDuration(v); err != nil || opt.LeaseTTL <= 0 {
			return exit(2, "-serve: bad lease=%q (want a positive duration like 15s)", v)
		}
	}
	opt.MaxRetries = -1 // default unless retries= says otherwise (0 is meaningful: fail on first expiry)
	if v := kv["retries"]; v != "" {
		if opt.MaxRetries, err = strconv.Atoi(v); err != nil || opt.MaxRetries < 0 {
			return exit(2, "-serve: bad retries=%q (want an integer >= 0)", v)
		}
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
	kv, err := parseKV("worker", spec, "url", "name", "exit", "stall", "engine-workers")
	if err != nil {
		return exit(2, "%v", err)
	}
	if kv["url"] == "" {
		return exit(2, "-worker requires url= (the coordinator address)")
	}
	name := kv["name"]
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &coord.Worker{Client: coord.NewClient(kv["url"]), Name: name, Log: stderr}
	switch kv["exit"] {
	case "", "never":
	case "drain":
		w.ExitOnDrain = true
	default:
		return exit(2, "-worker: bad exit=%q (want drain or never)", kv["exit"])
	}
	if v := kv["stall"]; v != "" {
		if w.Stall, err = time.ParseDuration(v); err != nil || w.Stall < 0 {
			return exit(2, "-worker: bad stall=%q (want a duration like 5s)", v)
		}
	}
	if v := kv["engine-workers"]; v != "" {
		if w.EngineWorkers, err = strconv.Atoi(v); err != nil || w.EngineWorkers < 0 {
			return exit(2, "-worker: bad engine-workers=%q (want an integer >= 0)", v)
		}
	}
	ctx, stop := signalCtx()
	defer stop()
	n, err := w.Run(ctx)
	if err != nil {
		return exit(1, "worker %s: %v (after %d points)", name, err, n)
	}
	fmt.Fprintf(stderr, "swsim: worker %s: done (%d points)\n", name, n)
	return 0
}
