// Command perfbench is the repository benchmark: it builds the stores and
// daemons of one workload in-process from a seed, drives them with a closed
// loop of two clients for a fixed time, checks every answer against a single
// in-process reference store, and prints the workload's metrics.
//
//	perfbench --workload read_fit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (client-observed, untraced); with --trace 1 they
// are the per-layer ledger of a separate traced run. Every line before it is
// a human-readable report, including an environment record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every metric an untraced run reports: what a user of the
// system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"qps", "1/s"}, {"p50_ms", "ms"}, {"p95_ms", "ms"}, {"cpu_ms_per_op", "ms"},
	{"heap_mb", "MiB"}, {"model_ms_per_op", "ms"}, {"setup_s", "s"},
}

// checkMetrics reports a result whose metrics are not exactly defs.
func checkMetrics(m metrics, defs []metricDef) error {
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics, want %d", len(m), len(defs))
	}
	for _, d := range defs {
		if v, ok := m[d.name]; !ok || v.Unit != d.unit {
			return fmt.Errorf("metric %s [%s] missing or in another unit", d.name, d.unit)
		}
	}
	return nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report collects what one run prints before its result line.
type report struct {
	Env     envRecord      `json:"env"`
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes,omitempty"`
	Extra   metrics        `json:"extra,omitempty"` // reported, not gated
	Errors  []string       `json:"errors,omitempty"`
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// maxErrors caps how many failure messages a report keeps; the count of
// failures is never capped.
const maxErrors = 20

func (r *report) fail(err error) {
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// envRecord is the environment a result was measured in.
type envRecord struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Clients     int    `json:"clients"`
	DataPages   int    `json:"data_pages"`
	BufferPages int    `json:"buffer_pages"`
	FlushPolicy string `json:"flush_policy"`
}

func newEnvRecord(workload string, seed int64, seconds int, traced bool) envRecord {
	return envRecord{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Clients:    clients,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// clients is the closed-loop population: one per CPU of the 2-vCPU machine
// the benchmark was sized on, each waiting for its reply on one connection.
const clients = 2

// buildDir is where the benchmark keeps what it writes, relative to the
// directory it runs in (the root of the checkout).
const buildDir = ".bench_build"

// runFunc runs one workload and fills the result and report.
type runFunc func(cfg runConfig, res *result, rep *report) error

// runConfig is the command line of one run.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workDir string // scratch space inside the checkout (WAL directories)
}

var workloads = map[string]runFunc{
	"read_fit":    runServed(readFit),
	"write_mix":   runServed(writeMix),
	"routed_read": runServed(routedRead),
	"join":        runJoin,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer ledger of a traced run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	err := os.MkdirAll(buildDir, 0o755)
	var workDir string
	if err == nil {
		workDir, err = os.MkdirTemp(buildDir, "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: workDir}
	res := result{Correct: true, Metrics: metrics{}}
	rep := report{Env: newEnvRecord(*workload, *seed, *seconds, cfg.trace), Samples: map[string]int{}, Extra: metrics{}}
	runErr := run(cfg, &res, &rep)
	if err := os.RemoveAll(workDir); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil {
		defs := endToEnd
		if cfg.trace {
			defs = ledgerMetrics
		}
		runErr = checkMetrics(res.Metrics, defs)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, runErr)
		os.Exit(1)
	}
	if len(rep.Errors) > 0 || res.Failed > 0 {
		res.Correct = false
	}
	printReport(&rep, &res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport writes the human-readable part of the output: the environment
// record, sample counts, notes, every metric with its unit, and failures.
func printReport(rep *report, res *result) {
	env, _ := json.Marshal(rep.Env)
	fmt.Printf("env %s\n", env)
	keys := make([]string, 0, len(rep.Samples))
	for k := range rep.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("samples %-28s %d\n", k, rep.Samples[k])
	}
	for _, n := range rep.Notes {
		fmt.Printf("note %s\n", n)
	}
	for _, set := range []struct {
		label string
		m     metrics
	}{{"metric", res.Metrics}, {"extra", rep.Extra}} {
		names := make([]string, 0, len(set.m))
		for k := range set.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%s %-34s %14.6g %s\n", set.label, k, set.m[k].Value, set.m[k].Unit)
		}
	}
	for _, e := range rep.Errors {
		fmt.Printf("error %s\n", e)
	}
	fmt.Printf("correct %v attempted %d failed %d\n", res.Correct, res.Attempted, res.Failed)
}
