// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a given number of seconds and prints, as its last line, a
// JSON object with the operations it attempted, how many failed, whether
// every output check passed, and its metrics:
//
//	perfbench -graspd <graspd binary> --workload paper-figures --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics through the entry
// points users run (exp.RunAll on a fresh session in a child process, or a
// spawned graspd driven over HTTP). With --trace 1 it makes a separate run
// that calls each layer's public functions from this package, one span per
// call, and reports per-layer times. perfbench/run.sh builds everything and
// is the command to use; README.md in this directory describes the
// workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's counts, metrics and check failures.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	problems          []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed output check; ok=true is a no-op.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkErr records a non-nil error from a check as a failed check.
func (r *report) checkErr(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// workloads names the benchmark's workloads.
var workloads = []string{"paper-figures", "corun-mix", "daemon-mix"}

// info prints a human-readable line; the result JSON is always last.
func info(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper-figures, corun-mix or daemon-mix")
		seed     = flag.Int64("seed", 1, "seed for the workload's generated inputs")
		seconds  = flag.Int("seconds", 20, "how long to measure; whole rounds run until it has passed")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		graspd   = flag.String("graspd", "", "graspd binary (daemon-mix; run.sh passes the one it built)")
		child    = flag.String("child", "", "internal: run one engine round in this process")
		setup    = flag.Bool("setup-only", false, "internal: with -child, exit once set-up is done")
		checks   = flag.Bool("check", false, "internal: with -child, run the output checks after the round")
	)
	flag.Parse()
	if *child != "" {
		if err := engineChild(*child, *setup, *checks); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if !known(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; known: %v\n", *workload, workloads)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	info("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep := newReport()
	var err error
	switch {
	case *traced == 1:
		err = tracedRun(*workload, *seed, *graspd, rep)
	case *workload == "daemon-mix":
		err = daemonMix(*seed, *seconds, *graspd, rep)
	default:
		err = engineRun(*workload, *seconds, rep)
	}
	if err != nil {
		// The benchmark itself could not run (no program to build or
		// start): print no result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		info("CHECK FAILED: %s", p)
	}
	info("attempted=%d failed=%d checks_failed=%d", rep.attempted, rep.failed, len(rep.problems))
	printResult(rep)
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

func printResult(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		info("metric %-40s %.6g %s", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
