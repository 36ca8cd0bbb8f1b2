package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/stats"
)

// ExtensionResult compares the base context-specific pipeline against the
// paper's future-work extension (Markov-chain gesture-boundary lookahead)
// and against the fixed-safety-check baseline the paper's introduction
// motivates against (static kinematic envelopes, global and per-gesture).
type ExtensionResult struct {
	Rows []ExtensionRow
}

// ExtensionRow is one monitored configuration.
type ExtensionRow struct {
	Name          string
	AUC           float64
	F1            float64
	ReactionMS    float64
	EarlyPct      float64
	Missed, Total int
}

// RunExtension evaluates the four configurations on a Suturing LOSO fold.
func RunExtension(o Options) (*ExtensionResult, error) {
	demos, folds, err := o.suturingData()
	if err != nil {
		return nil, err
	}
	truths := truthsFor(demos)
	fold := folds[0]
	foldTruths := splitTruths(demos, truths, fold.Test)

	gc, err := core.TrainGestureClassifier(fold.Train, o.gestureClassifierConfig(kinematics.AllFeatures()))
	if err != nil {
		return nil, err
	}
	lib, err := core.TrainErrorLibrary(fold.Train, o.errorDetectorConfig(core.ArchConv, kinematics.AllFeatures(), 5))
	if err != nil {
		return nil, err
	}
	mon := core.NewMonitor(gc, lib)

	var seqs [][]int
	for _, tr := range fold.Train {
		seqs = append(seqs, tr.GestureSequence())
	}
	chain, err := gesture.FitMarkovChain(seqs)
	if err != nil {
		return nil, err
	}
	lookahead := *mon
	lookahead.Lookahead, lookahead.LookaheadBlend = chain, 0.8

	res := &ExtensionResult{}
	baseRep, err := mon.Evaluate(fold.Test, foldTruths)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, extensionRow("context-specific pipeline", baseRep))

	laRep, err := lookahead.Evaluate(fold.Test, foldTruths)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, extensionRow("+ boundary lookahead (future work)", laRep))

	// Static envelopes: score trajectories directly.
	for _, setup := range []struct {
		name       string
		perGesture bool
	}{
		{"static envelope (global thresholds)", false},
		{"static envelope (per-gesture thresholds)", true},
	} {
		env := baseline.NewStaticEnvelope(kinematics.CRG(), setup.perGesture)
		if err := env.Fit(fold.Train); err != nil {
			return nil, err
		}
		var scores []float64
		var labels []bool
		for _, tr := range fold.Test {
			s, err := env.ScoreTrajectory(tr)
			if err != nil {
				return nil, err
			}
			scores = append(scores, s...)
			for _, u := range tr.Unsafe {
				labels = append(labels, u)
			}
		}
		res.Rows = append(res.Rows, ExtensionRow{
			Name: setup.name,
			AUC:  stats.AUC(scores, labels),
			F1:   stats.F1AtThreshold(scores, labels, 1e-9),
		})
	}
	return res, nil
}

func extensionRow(name string, rep *core.PipelineReport) ExtensionRow {
	return ExtensionRow{
		Name:       name,
		AUC:        rep.AUC,
		F1:         rep.F1,
		ReactionMS: stats.Mean(rep.ReactionTimesMS),
		EarlyPct:   rep.EarlyDetectionPct,
		Missed:     rep.MissedErrors,
		Total:      rep.TotalErrors,
	}
}

// Render returns the comparison table.
func (r *ExtensionResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension study — lookahead (future work) and static-envelope baselines (Suturing):\n")
	fmt.Fprintf(&b, "%-44s %6s %6s %10s %8s %8s\n", "Configuration", "AUC", "F1", "React(ms)", "Early%", "Missed")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-44s %6.2f %6.2f %+9.0f  %7.1f%% %4d/%d\n",
			row.Name, row.AUC, row.F1, row.ReactionMS, row.EarlyPct, row.Missed, row.Total)
	}
	return b.String()
}
