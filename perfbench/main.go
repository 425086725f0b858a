// Command perfbench is the repository's end-to-end benchmark. It drives one
// seeded workload through the public pem API, checks every output against
// computations made apart from the program, and prints one JSON result as
// its last line of standard output:
//
//	perfbench --workload paper-paced --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (measured with
// no tracing attached); with --trace 1 a separate traced run on the same
// workload's inputs prints the per-layer metrics instead. --repeat N runs
// the workload N times in fresh processes (seeds seed..seed+N-1) and prints
// each metric's median, quartiles and spread next to its bound from
// BENCHMARK.json. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// programSeed seeds the program's own randomness (Config.Seed: keys, nonce
// pools, protocol coins, emulated-link draws) so that byte and virtual-time
// figures repeat exactly. It is fixed: the benchmark's --seed derives only
// the generated inputs, and the program never sees it.
const programSeed int64 = 20200425

// opts are the command-line settings every workload receives. The seed is
// the benchmark's own: it derives the workload's inputs, which are all the
// program ever sees.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// noPool turns the nonce pool off (PreEncrypt false) on paper-paced:
	// an ablation for the README's reference figures, not a workload.
	noPool bool
	// scratch is a private directory under the checkout for WAL segments;
	// it is removed before the process exits.
	scratch string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of standard
// output is this object, encoded as JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics) and reports its operations through the tally.
type workload struct {
	run   func(o opts, t *tally) (map[string]metric, error)
	trace func(o opts, t *tally) (map[string]metric, error)
}

var workloads = map[string]workload{
	"paper-paced":  {run: runPaced, trace: tracePaced},
	"hybrid-grid":  {run: runHybridGrid, trace: traceHybridGrid},
	"durable-live": {run: runDurableLive, trace: traceDurableLive},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-paced, hybrid-grid or durable-live")
	seed := fs.Int64("seed", 1, "input seed (derives every generated input)")
	seconds := fs.Int("seconds", 20, "nominal measured seconds per run; fixes the amount of work")
	traced := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times in fresh processes and summarize")
	noPool := fs.Bool("no-pool", false, "paper-paced ablation: PreEncrypt off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (have %v)", *name, names)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be ≥ 1, got %d", *seconds)
	}
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *traced == 1, *noPool, *repeat)
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)
	o := opts{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, noPool: *noPool, scratch: scratch}

	t := &tally{}
	var metrics map[string]metric
	if o.trace {
		metrics, err = w.trace(o, t)
	} else {
		metrics, err = w.run(o, t)
	}
	if err != nil {
		return err
	}
	t.print(os.Stdout)
	res := result{Correct: t.correct(), Attempted: t.attempted(), Failed: t.failed(), Metrics: metrics}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
