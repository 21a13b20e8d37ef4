// Command perfbench is the repository's benchmark. It runs one named
// workload — or every workload with -workload all — for a time budget,
// checks every output with a correctness gate, and prints each end-to-end
// metric by name and unit. With -trace 1 it records a span around every
// call into a layer's public function and prints the per-layer metrics
// instead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 5.2, "unit": "s"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload synth-dfs --seed 1 --seconds 26 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// workloads lists every workload in the order -workload all runs them.
func workloads() []workload {
	return []workload{synthDFS(), verifyBFS(), serveMix(), durableDFS()}
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 26, "time budget of one run")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, run records and checkpoints")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var chosen []workload
	for _, w := range workloads() {
		if cfg.workload == w.name || cfg.workload == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := runAll(cfg, chosen, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAll runs each chosen workload, printing one row per workload and
// every record a run keeps to w. With several workloads the result's
// metric names are prefixed with the workload name.
func runAll(cfg config, chosen []workload, w *os.File) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range chosen {
		c := cfg
		c.workload = wl.name
		r := execute(c, wl)
		ms := r.endToEnd()
		if cfg.trace {
			ms = r.perLayer()
		}
		share := 0.0
		if r.attempted > 0 {
			share = float64(r.failed) / float64(r.attempted)
		}
		fmt.Fprintf(w, "%-11s seed=%d passes=%d jobs=%d failed_share=%.4f (%d/%d)\n",
			wl.name, cfg.seed, len(r.passes), r.jobs(), share, r.failed, r.attempted)
		var row []string
		for _, m := range ms {
			row = append(row, fmt.Sprintf("%s=%.6g %s", m.name, m.value, m.unit))
			name := m.name
			if len(chosen) > 1 {
				name = wl.name + "." + m.name
			}
			res.Metrics[name] = metricValue{m.value, m.unit}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(row, "  "))
		var walls []string
		for _, p := range r.passes {
			walls = append(walls, fmt.Sprintf("%.4f", p.wall.Seconds()))
		}
		fmt.Fprintf(w, "  pass walls (s): %s\n", strings.Join(walls, " "))
		for _, f := range r.failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		if err := r.writeRecords(w); err != nil {
			return nil, err
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Correct = res.Correct && r.failed == 0 && r.attempted > 0
	}
	return res, nil
}

// writeRecords writes the run's spans and serve-mix generator record to
// the output directory and prints the layer self-time table.
func (r *run) writeRecords(w *os.File) error {
	base := filepath.Join(r.cfg.out, fmt.Sprintf("%s-seed%d", r.cfg.workload, r.cfg.seed))
	if g := r.generator; g != nil {
		data, err := json.Marshal(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  generator %s\n", data)
		if err := os.WriteFile(base+"-generator.json", data, 0o644); err != nil {
			return err
		}
	}
	if !r.cfg.trace {
		return nil
	}
	fmt.Fprint(w, r.layerTable())
	return r.tr.write(base + "-spans.jsonl")
}
