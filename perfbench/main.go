// Command perfbench is anchor's end-to-end benchmark. It drives the
// library from outside, through the public functions of its packages, and
// runs one of three workloads per invocation:
//
//   - read-hot: the HTTP read path over resident snapshots (kernels, top-k,
//     ANN search and response encoding do the work);
//   - read-churn: the read path after a restart, with a query budget and
//     store capacity too small for the working set (snapshot loads do the
//     work);
//   - grid-cell: the paper's pipeline for a fixed list of sweep cells
//     (training, alignment, quantization, measures, downstream tasks).
//
// Usage:
//
//	go run . --workload read-hot --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json, measured untraced; with
// --trace 1 they are the per-layer metrics, taken from a separate traced
// replay of the same seeded operations. Every answer is checked against a
// library oracle outside the timed phase, and every workload checks its
// own shape (exact load and compute counts); any failure makes the exit
// code non-zero. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement with its unit.
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

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool // tiny corpus and short op lists; set by the smoke test
	dir      string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*report, error){
	"read-hot":   runReadHot,
	"read-churn": runReadChurn,
	"grid-cell":  runGrid,
}

// report is what a workload run hands back: the result line plus the
// diagnostics printed beside it.
type report struct {
	res   result
	notes []string
	spans []span

	// grid-cell only: a digest of the Service reports and the store
	// computes of the timed phase.
	digest   uint64
	computes int64
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: read-hot, read-churn or grid-cell")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (request words, order and training seed)")
	flag.IntVar(&o.seconds, "seconds", 8, "nominal length of the timed phase; sets the operation count")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "work directory for caches and traces")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	runW, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	}
	work := filepath.Join(o.dir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.dir = work

	rep, err := runW(context.Background(), o)
	if err != nil {
		return err
	}
	if o.trace {
		path := filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(rep.spans), path))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("NumCPU %d", runtime.NumCPU()))
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	for _, name := range sortedKeys(rep.res.Metrics) {
		m := rep.res.Metrics[name]
		fmt.Printf("# %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("# %-34s %14.6g %s\n", "failed_frac", float64(rep.res.Failed)/float64(max(rep.res.Attempted, 1)), "frac")
	line, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	if !rep.res.Correct || rep.res.Failed > 0 {
		// The result line is still printed for diagnosis, but a run with
		// a wrong answer or a drifted shape is not a measurement.
		fmt.Println(string(line))
		return errors.New("oracle or shape check failed; see the lines above")
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
