package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark and its tests
// read: the regression bound of every end-to-end metric, and the names and
// units the printed report is held to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runAA runs every selected workload twice on the same build and holds each
// end-to-end metric's two values to the bound BENCHMARK.json sets for it: the
// noise floor a parent/change comparison has to clear.
func runAA(selected []workload, cfg config) error {
	b, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("bench: -aa reads the bounds from the repository root: %w", err)
	}
	// A process started on a box that has sat idle reads millisecond-scale
	// set-ups at twice what it reads a second later (seen on the shared-vCPU
	// build box; back-to-back runs do not show it). One short discarded run
	// takes that out of the comparison.
	warm := cfg
	warm.dur = time.Second
	if _, err := selected[0].run(warm); err != nil {
		return fmt.Errorf("bench: %s: %w", selected[0].name, err)
	}
	outside := 0
	for _, w := range selected {
		var runs [2]*outcome
		for i := range runs {
			if runs[i], err = w.run(cfg); err != nil {
				return fmt.Errorf("bench: %s: %w", w.name, err)
			}
			if runs[i].err != nil {
				return fmt.Errorf("bench: %s: %w", w.name, runs[i].err)
			}
		}
		fmt.Printf("== %s: A/A, %s measured per run\n", w.name, cfg.dur)
		for _, d := range b.EndToEnd {
			a, c := runs[0].metrics[d.Name], runs[1].metrics[d.Name]
			diff := math.Abs(c-a) / a
			verdict := "ok"
			if diff > d.Bound {
				verdict = "OUTSIDE BOUND"
				outside++
			}
			fmt.Printf("   %-14s %12.4f %12.4f %-4s diff %6.2f%%  bound %5.1f%%  %s\n",
				d.Name, a, c, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("bench: -aa: %d end-to-end metrics differ between two runs of the same build by more than their bound", outside)
	}
	return nil
}
