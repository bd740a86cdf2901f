// Command tracecat reads a JSONL trace (as exported by wsnsim -trace-out or
// trace.Tracer.WriteJSONL) and renders it for humans: an event timeline,
// per-node activity summaries, an energy-balance table, and the trace/check
// invariant verdict. With no mode flags it prints a compact overview.
//
// Usage:
//
//	tracecat [-timeline] [-nodes] [-energy] [-check] [-side N] [-total E] [trace.jsonl]
//
// With no file argument the trace is read from stdin. -check exits with
// status 1 when the invariant engine finds violations, so it composes into
// shell pipelines and CI steps:
//
//	wsnsim -engine des -trace-out /tmp/run.jsonl && tracecat -check /tmp/run.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"wsnva/internal/trace"
	"wsnva/internal/trace/check"
)

func main() {
	timeline := flag.Bool("timeline", false, "print the full event timeline")
	nodes := flag.Bool("nodes", false, "print per-node activity summaries")
	energy := flag.Bool("energy", false, "print the per-node energy-balance table (from Charge events)")
	runCheck := flag.Bool("check", false, "replay the trace through the invariant engine; exit 1 on violations")
	side := flag.Int("side", 0, "grid side for coordinate range checks (0: skip them)")
	total := flag.Int64("total", -1, "expected ledger total for energy conservation (-1: skip)")
	flag.Parse()

	r := os.Stdin
	if flag.NArg() > 1 {
		log.Fatalf("tracecat: at most one trace file, got %d args", flag.NArg())
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatalf("tracecat: %v", err)
		}
		defer f.Close()
		r = f
	}
	events, err := trace.Decode(r)
	if err != nil {
		log.Fatalf("tracecat: %v", err)
	}

	if !*timeline && !*nodes && !*energy && !*runCheck {
		summarize(events)
		return
	}
	if *timeline {
		fmt.Print(trace.Timeline(events))
	}
	if *nodes {
		printNodes(events)
	}
	if *energy {
		printEnergy(events, *total)
	}
	if *runCheck {
		vs := check.Run(events, check.Options{Side: *side, LedgerTotal: *total})
		if len(vs) == 0 {
			fmt.Printf("check: %d events, no invariant violations\n", len(events))
			return
		}
		fmt.Printf("check: %d violation(s) in %d events:\n", len(vs), len(events))
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
		}
		os.Exit(1)
	}
}

// summarize prints the compact overview: span, event counts per kind, and
// the busiest identities.
func summarize(events []trace.Event) {
	if len(events) == 0 {
		fmt.Println("empty trace")
		return
	}
	counts := map[string]int{}
	perNode := map[string]int{}
	last := events[0].At
	for _, e := range events {
		counts[e.Kind.String()]++
		if e.Node != "" {
			perNode[e.Node]++
		}
		if e.At > last {
			last = e.At
		}
	}
	fmt.Printf("%d events, t=%d..%d, %d identities\n", len(events), events[0].At, last, len(perNode))
	for _, k := range sortedKeys(counts) {
		fmt.Printf("  %-10s %d\n", k, counts[k])
	}
	type nc struct {
		node string
		n    int
	}
	var busy []nc
	for n, c := range perNode {
		busy = append(busy, nc{n, c})
	}
	sort.Slice(busy, func(i, j int) bool {
		if busy[i].n != busy[j].n {
			return busy[i].n > busy[j].n
		}
		return busy[i].node < busy[j].node
	})
	if len(busy) > 5 {
		busy = busy[:5]
	}
	fmt.Println("busiest identities:")
	for _, b := range busy {
		fmt.Printf("  %-10s %d events\n", b.node, b.n)
	}
}

// nodeStat accumulates one identity's activity.
type nodeStat struct {
	events, sends, delivers, drops, retries int
	charge                                  int64
	died                                    bool
	diedAt                                  int64
}

func printNodes(events []trace.Event) {
	stats := map[string]*nodeStat{}
	get := func(node string) *nodeStat {
		s, ok := stats[node]
		if !ok {
			s = &nodeStat{}
			stats[node] = s
		}
		return s
	}
	for _, e := range events {
		if e.Node == "" {
			continue
		}
		s := get(e.Node)
		s.events++
		switch e.Kind {
		case trace.Send:
			s.sends++
		case trace.Deliver:
			s.delivers++
		case trace.Drop:
			s.drops++
		case trace.Retry:
			s.retries++
		case trace.Charge:
			s.charge += e.Bytes
		case trace.Death:
			if !s.died {
				s.died = true
				s.diedAt = int64(e.At)
			}
		}
	}
	fmt.Printf("%-10s %7s %6s %8s %6s %7s %8s %s\n",
		"node", "events", "sends", "delivers", "drops", "retries", "charge", "died")
	for _, n := range sortedStatKeys(stats) {
		s := stats[n]
		died := "-"
		if s.died {
			died = fmt.Sprintf("t=%d", s.diedAt)
		}
		fmt.Printf("%-10s %7d %6d %8d %6d %7d %8d %s\n",
			n, s.events, s.sends, s.delivers, s.drops, s.retries, s.charge, died)
	}
}

// printEnergy renders the energy balance ledger-style: per-node charge sums
// from Charge events, their total, and (when -total is given) the
// difference against the expected ledger total.
func printEnergy(events []trace.Event, total int64) {
	perNode := map[string]int64{}
	var sum int64
	for _, e := range events {
		if e.Kind != trace.Charge {
			continue
		}
		perNode[e.Node] += e.Bytes
		sum += e.Bytes
	}
	fmt.Printf("%-10s %10s\n", "node", "charged")
	for _, n := range sortedEnergyKeys(perNode) {
		fmt.Printf("%-10s %10d\n", n, perNode[n])
	}
	fmt.Printf("%-10s %10d\n", "TOTAL", sum)
	if total >= 0 {
		fmt.Printf("%-10s %10d (delta %+d)\n", "EXPECTED", total, sum-total)
	}
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedStatKeys(m map[string]*nodeStat) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedEnergyKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
