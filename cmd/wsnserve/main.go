// Command wsnserve is the mission server: simulation-as-a-service over
// HTTP/JSON with a content-addressed result cache.
//
// Serve (default):
//
//	wsnserve -addr :8080 [-workers N] [-tenant-slots N] [-queue N] [-cache-mb N]
//
// One-shot (the CLI conformance path — prints exactly the bytes the
// server would serve for the same spec):
//
//	wsnserve -oneshot spec.json [-trace-out trace.jsonl]
//
// Load testing lives in bench/: its serve-hot and serve-cold workloads
// drive this server over loopback HTTP.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"wsnva/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent missions (0 = GOMAXPROCS)")
	tenantSlots := flag.Int("tenant-slots", 0, "per-tenant outstanding mission cap (0 = default 4)")
	queue := flag.Int("queue", 0, "global queued-mission bound (0 = default 64)")
	cacheMB := flag.Int64("cache-mb", 0, "result cache budget in MiB (0 = default 64)")
	oneshot := flag.String("oneshot", "", "run one mission spec file ('-' = stdin) and print the result")
	traceOut := flag.String("trace-out", "", "with -oneshot: write the canonical trace JSONL here")
	flag.Parse()

	cfg := serve.Config{
		Sched: serve.SchedConfig{
			Workers:     *workers,
			TenantSlots: *tenantSlots,
			QueueBound:  *queue,
		},
		CacheBytes: *cacheMB << 20,
	}

	if *oneshot != "" {
		os.Exit(runOneshot(*oneshot, *traceOut))
	}
	srv := serve.NewServer(cfg)
	fmt.Fprintf(os.Stderr, "wsnserve: %s listening on %s (workers=%d)\n",
		serve.Version, *addr, srv.Sched().Workers())
	if err := http.ListenAndServe(*addr, srv); err != nil {
		fmt.Fprintf(os.Stderr, "wsnserve: %v\n", err)
		os.Exit(1)
	}
}

func runOneshot(path, traceOut string) int {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsnserve: %v\n", err)
		return 1
	}
	result, trace, err := serve.Oneshot(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsnserve: %v\n", err)
		return 1
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, trace, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "wsnserve: %v\n", err)
			return 1
		}
	}
	os.Stdout.Write(result)
	return 0
}
