// Command experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	experiments -run all            # every table and figure
//	experiments -run table8         # one experiment
//	experiments -run table3 -scale full -seed 7
//
// Experiments: fig3, fig5, rubric, table3, table4, table5, table6, table7,
// table8, table9, fig8, fig9, all.
//
// Beyond the paper, -run train fits detector backends and saves
// versioned model artifacts into -model-dir for safemond to serve (see
// -backend, -model-version), -run mitigate runs the
// simulator-in-the-loop reaction campaign — the fault-injection suite
// replayed unguarded vs. guarded (safemon/guard) over identical worlds,
// reporting prevented / missed / false-stop counts and
// detection-to-hazard latencies per backend (see -backend, -scale), and
// -run incidents drives the durable event ledger end to end: guarded
// streams with injected faults latch safe-stops that become incidents
// on disk, each replayed byte-identically through its original backend
// and counterfactually through a second one. All three are excluded
// from "all". Serving load is measured by perfbench (bash
// perfbench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/gesture"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// renderer is any experiment result that can print itself.
type renderer interface{ Render() string }

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runName := fs.String("run", "all", "experiment to run (fig3,fig5,rubric,table3..table9,fig8,fig9,all)")
	scale := fs.String("scale", "quick", "experiment scale: quick or full")
	seed := fs.Int64("seed", 1, "deterministic seed")
	verbose := fs.Bool("v", false, "print progress")
	backend := fs.String("backend", "envelope", "train/mitigate/incidents: backend(s) to use (train accepts a comma list or 'all')")
	modelDir := fs.String("model-dir", "./models", "train: model store directory for saved artifacts")
	modelVersion := fs.String("model-version", "", "train: artifact version (empty = next sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backendFlagSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "backend" {
			backendFlagSet = true
		}
	})

	opts := experiments.Options{Scale: experiments.Quick, Seed: *seed}
	if *scale == "full" {
		opts.Scale = experiments.Full
	}
	if *verbose {
		opts.Verbose = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}

	runners := map[string]func() (renderer, error){
		"fig3":      func() (renderer, error) { return experiments.RunFig3(opts) },
		"fig5":      func() (renderer, error) { return experiments.RunFig5(opts) },
		"rubric":    func() (renderer, error) { return rubricResult{}, nil },
		"table3":    func() (renderer, error) { return experiments.RunTable3(opts) },
		"table4":    func() (renderer, error) { return experiments.RunTable4(opts) },
		"table5":    func() (renderer, error) { return experiments.RunTable5(opts) },
		"table6":    func() (renderer, error) { return experiments.RunTable6(opts) },
		"table7":    func() (renderer, error) { return experiments.RunTable7(opts) },
		"table8":    func() (renderer, error) { return experiments.RunTable8(opts) },
		"table9":    func() (renderer, error) { return experiments.RunTable9(opts) },
		"fig8":      func() (renderer, error) { return experiments.RunFig8(opts) },
		"fig9":      func() (renderer, error) { return experiments.RunFig9(opts) },
		"extension": func() (renderer, error) { return experiments.RunExtension(opts) },
		"train": func() (renderer, error) {
			return runTrain(opts, trainOptions{modelDir: *modelDir, backends: *backend, version: *modelVersion})
		},
		"mitigate": func() (renderer, error) {
			backends := *backend
			if !backendFlagSet {
				backends = "" // campaign default: context-aware + envelope
			}
			return runMitigate(opts, mitigateOptions{backends: backends})
		},
		"incidents": func() (renderer, error) {
			return runIncidents(opts, incidentsOptions{backend: *backend})
		},
	}

	names := []string{*runName}
	if *runName == "all" {
		names = names[:0]
		for name := range runners {
			// Service drills and the mitigation campaign are not paper
			// artifacts; run them explicitly.
			if name == "train" || name == "mitigate" || name == "incidents" {
				continue
			}
			names = append(names, name)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		runner, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		start := time.Now()
		res, err := runner()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("==== %s (scale=%s, seed=%d, %.1fs) ====\n%s\n",
			name, opts.Scale, opts.Seed, time.Since(start).Seconds(), res.Render())
	}
	return nil
}

// rubricResult renders the static Table II rubric.
type rubricResult struct{}

func (rubricResult) Render() string {
	var b strings.Builder
	b.WriteString("Table II — gesture-specific errors (rubric):\n")
	rubric := gesture.Rubric()
	var gs []int
	for g := range rubric {
		gs = append(gs, int(g))
	}
	sort.Ints(gs)
	for _, gi := range gs {
		e := rubric[gesture.Gesture(gi)]
		var modes, faults []string
		for _, m := range e.Modes {
			modes = append(modes, m.String())
		}
		for _, f := range e.Faults {
			faults = append(faults, f.String())
		}
		fmt.Fprintf(&b, "%-4s %-42s errors: %s; causes: %s\n",
			e.Gesture, e.Gesture.Description(), strings.Join(modes, ", "), strings.Join(faults, ", "))
	}
	return b.String()
}
