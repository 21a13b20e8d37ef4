package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, seed int64) config {
	return config{seed: seed, seconds: 0.2, tiny: true, out: t.TempDir()}
}

// runOne runs one workload through runAll and returns its printed lines
// and the parsed final JSON line.
func runOne(t *testing.T, cfg config, w workload) ([]string, result) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := runAll(cfg, []workload{w}, f)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, string(line))
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return lines, last
}

// TestTinyRunsPrintEveryMetric runs each workload at tiny size, untraced
// and traced, and checks that exactly the declared metrics are printed,
// each with its declared unit, and that the gate passes.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				cfg := tinyConfig(t, 1)
				cfg.trace = traced
				want := endToEnd
				if traced {
					want = perLayer
				}
				lines, res := runOne(t, cfg, w)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("gate: correct=%v failed=%d attempted=%d\n%s",
						res.Correct, res.Failed, res.Attempted, strings.Join(lines, "\n"))
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metrics printed %v, declared %v", got, want)
				}
				row := strings.Join(lines[:len(lines)-1], "\n")
				for name, unit := range want {
					printed := regexp.MustCompile(`(^|\s)` + regexp.QuoteMeta(name) + `=\S+ ` + regexp.QuoteMeta(unit) + `(\s|$)`)
					if !printed.MatchString(row) {
						t.Errorf("row lacks %s with unit %s", name, unit)
					}
				}
			})
		}
	}
}

// generatedInputs describes everything a workload generates from its
// seed.
func generatedInputs(name string, seed int64) string {
	switch name {
	case "synth-dfs":
		return fmt.Sprint(shuffled(seed, synthInstances(false)))
	case "verify-bfs":
		var ids []string
		for _, c := range shuffled(seed, verifyCases(false)) {
			ids = append(ids, c.id)
		}
		return fmt.Sprint(ids)
	case "serve-mix":
		return fmt.Sprint(serveRequests(seed, false))
	case "durable-dfs":
		return fmt.Sprint(durableInterrupts(seed, false))
	}
	panic(name)
}

// TestSeedDeterminesInputs checks that a seed always generates the same
// inputs and that other seeds generate other ones. A workload whose only
// seeded input is the order of a few fixed instances must show at least two
// orders over ten seeds.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads() {
		distinct := map[string]bool{}
		for seed := int64(1); seed <= 10; seed++ {
			a, b := generatedInputs(w.name, seed), generatedInputs(w.name, seed)
			if a != b {
				t.Errorf("%s: seed %d generated different inputs twice", w.name, seed)
			}
			distinct[a] = true
		}
		if len(distinct) < 2 {
			t.Errorf("%s: ten seeds generated identical inputs", w.name)
		}
	}
	for _, name := range []string{"serve-mix", "durable-dfs"} {
		if generatedInputs(name, 1) == generatedInputs(name, 2) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

// TestCorruptedOutputFailsGate damages one witness or schedule per run and
// requires the gate to count it, so a zero failed_share means something.
func TestCorruptedOutputFailsGate(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t, 1)
			cfg.corrupt = true
			r := execute(cfg, w)
			if !r.corrupted {
				t.Fatal("nothing was corrupted")
			}
			if r.failed == 0 {
				t.Fatalf("gate passed a corrupted output (%d attempted)", r.attempted)
			}
		})
	}
}
