// Command perfbench is the repository's benchmark: it deploys the live
// FORTRESS stack, drives one named workload from a seed, checks that every
// answer is correct, and prints each metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// measures untraced once and then again with a span around every call the
// benchmark makes into a layer, and the metrics are the per-layer ones.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload pb-write --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fortress/internal/replica"
)

// workloadDef is one named workload.
type workloadDef struct {
	name     string
	backend  replica.Backend
	groups   int
	leases   bool
	wal      bool
	keys     int
	readFrac float64
	baseRate float64 // requests per second at which latency is measured
	ramp     bool    // follow the base window with a rate ramp
	failover bool    // crash and restart the PB primary mid-window
	campaign bool    // a live attack campaign instead of open-loop traffic
}

var workloads = []workloadDef{
	{name: "pb-write", backend: replica.BackendPB, groups: 1, keys: 1000, readFrac: 0.1, baseRate: 50, ramp: true},
	{name: "smr-read", backend: replica.BackendSMR, groups: 2, leases: true, keys: 1000, readFrac: 0.95, baseRate: 150, ramp: true},
	{name: "pb-failover", backend: replica.BackendPB, groups: 1, wal: true, keys: 100, readFrac: 0.1, baseRate: 50, failover: true},
	{name: "po-campaign", keys: 1, campaign: true},
}

func lookup(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object the last line of output carries.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pb-write, smr-read, pb-failover or po-campaign")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 measures per-layer metrics with spans, 0 end-to-end metrics")
	out := fs.String("out", ".bench_build/perfbench-run", "directory for spans and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := lookup(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("-seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("-trace must be 0 or 1")
	}
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := runConfig{def: def, seed: *seed, window: time.Duration(*seconds) * time.Second, out: *out}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d %s\n", def.name, *seed, *seconds, *trace, hostFacts())
	var rep report
	if *trace == 1 {
		rep, err = traced(cfg, stdout)
	} else {
		var m *measurement
		m, err = measure(cfg, nil, false)
		if err == nil {
			m.describe(stdout)
			rep = m.report(endToEnd(m))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for n, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s is %v, printed as 0\n", n, v.Value)
			rep.Metrics[n] = metric{0, v.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-26s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// traced runs the workload untraced and then traced, and reports the
// per-layer metrics: span timings from the traced pass, everything else
// from the untraced one.
func traced(cfg runConfig, stdout io.Writer) (report, error) {
	plain, err := measure(cfg, nil, true)
	if err != nil {
		return report{}, err
	}
	plain.describe(stdout)
	tr := newTracer()
	withSpans, err := measure(cfg, tr, false)
	if err != nil {
		return report{}, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.def.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	rep := plain.report(perLayer(plain, withSpans, tr))
	rep.Correct = rep.Correct && withSpans.correct()
	return rep, nil
}
