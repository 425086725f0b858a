package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the repeat mode reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repeatRuns runs one workload n times, each in a fresh process (so
// peak_rss_mib stays per run) with seeds seed..seed+n-1, and prints every
// metric's median, quartiles and spread — the interquartile distance as a
// share of the median — next to its bound.
func repeatRuns(name string, seed int64, seconds int, traced, noPool bool, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("repeat mode reads the bounds from BENCHMARK.json: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics := sp.EndToEnd
	trace := "0"
	if traced {
		metrics, trace = sp.PerLayer, "1"
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var shares []string
	allCorrect := true
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		var out bytes.Buffer
		args := []string{"--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", trace}
		if noPool {
			args = append(args, "--no-pool")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		allCorrect = allCorrect && res.Correct
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
		}
		fmt.Fprintf(os.Stderr, "seed %d: correct %v, failed %d of %d;", s, res.Correct, res.Failed, res.Attempted)
		for _, m := range metrics {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(os.Stderr, " %s %.4g", m.Name, v.Value)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Printf("%s: %d runs, seeds %d..%d, %d s, trace %s; all correct: %v; failed/attempted: %s\n",
		name, n, seed, seed+int64(n)-1, seconds, trace, allCorrect, strings.Join(shares, " "))
	fmt.Printf("%-34s %-6s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, m := range metrics {
		vs := values[m.Name]
		if len(vs) == 0 {
			fmt.Printf("%-34s %-6s (not reported)\n", m.Name, m.Unit)
			continue
		}
		q1, q2, q3 := quartiles(vs)
		spread := math.NaN()
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		bound := "-"
		if !traced {
			bound = fmt.Sprintf("%.2f", m.Bound)
			switch {
			case spread > m.Bound:
				bound += " OVER"
			case spread > m.Bound/3:
				bound += " >1/3"
			}
		}
		fmt.Printf("%-34s %-6s %14.4f %14.4f %14.4f %8.4f %6s\n", m.Name, m.Unit, q1, q2, q3, spread, bound)
	}
	return nil
}
