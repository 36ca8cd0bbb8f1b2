package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/synth"
	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
	"repro/safemon/serve"
)

// incidentsOptions carries the incidents-drill flags.
type incidentsOptions struct {
	backend string // primary monitored backend
}

// incidentRow is one captured incident's report line.
type incidentRow struct {
	id            string
	triggerFrame  int
	triggerAction string
	frames        int
	peakScore     float64
	fidelityOK    bool
	crossBackend  string
	crossActions  int
	crossLatched  bool
}

// incidentsReport renders the incident-drill outcome.
type incidentsReport struct {
	backend string
	streams int
	attacks int
	rows    []incidentRow
	ledger  ledger.Snapshot
}

func (r incidentsReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incident ledger drill — %d streams (%d fault-injected) on %s, disk ledger:\n",
		r.streams, r.attacks, r.backend)
	fmt.Fprintf(&b, "%-8s %-9s %-10s %-7s %-10s %-9s %s\n",
		"id", "trigger@", "action", "frames", "peak", "fidelity", "cross-replay")
	for _, row := range r.rows {
		fidelity := "exact"
		if !row.fidelityOK {
			fidelity = "MISMATCH"
		}
		cross := fmt.Sprintf("%s: %d actions", row.crossBackend, row.crossActions)
		if row.crossLatched {
			cross += " (latched)"
		}
		fmt.Fprintf(&b, "%-8s %-9d %-10s %-7d %-10.3g %-9s %s\n",
			row.id, row.triggerFrame, row.triggerAction, row.frames, row.peakScore, fidelity, cross)
	}
	fmt.Fprintf(&b, "ledger: %d events in %d bytes across %d segments, %d batches, %d dropped\n",
		r.ledger.Appended, r.ledger.Bytes, r.ledger.Segments, r.ledger.Batches, r.ledger.Dropped)
	return b.String()
}

// runIncidents drives the record → safe-stop → replay round-trip end to
// end: a safemond service with an on-disk event ledger serves guarded
// streams, fault-injected trajectories latch safe-stops that become
// incidents, and every captured incident is replayed twice — through the
// original backend and policy (where the trail must reproduce
// byte-identically; a mismatch fails the drill) and through a second
// backend (what would the other monitor have done?).
func runIncidents(opts experiments.Options, ic incidentsOptions) (renderer, error) {
	ctx := context.Background()
	primary := ic.backend
	cross := "skipchain"
	if primary == cross {
		cross = "envelope"
	}

	numDemos, scale := 12, 0.35
	if opts.Scale == experiments.Full {
		numDemos, scale = 24, 0.6
	}
	set, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: opts.Seed,
		NumDemos: numDemos, NumTrials: 4, Subjects: 4, DurationScale: scale,
	})
	if err != nil {
		return nil, err
	}
	fold := dataset.LOSO(synth.Trajectories(set))[0]

	detectors := make(map[string]safemon.Detector, 2)
	for _, name := range []string{primary, cross} {
		detOpts := []safemon.Option{safemon.WithSeed(opts.Seed), safemon.WithThreshold(0.2)}
		if opts.Scale == experiments.Quick {
			detOpts = append(detOpts, safemon.WithEpochs(2), safemon.WithTrainStride(6))
		}
		det, err := safemon.Open(name, detOpts...)
		if err != nil {
			return nil, err
		}
		if opts.Verbose != nil {
			opts.Verbose(fmt.Sprintf("fitting %s on %d demos", name, len(fold.Train)))
		}
		if err := det.Fit(ctx, fold.Train); err != nil {
			return nil, err
		}
		detectors[name] = det
	}

	// The paper's closed-loop policy shape: confirm after 2 evidence
	// frames, climb one rung per frame to a latching safe-stop. The
	// threshold matches the detectors' alert threshold: envelope scores
	// are normalized range-width excesses, so the injected 1.3–1.6 rad
	// grasper bands land a few tenths above it.
	policy := guard.Policy{
		Name: "stop-fast", Threshold: 0.2,
		DebounceFrames: 2, ReleaseFrames: 2, EscalateFrames: 1,
		InitialAction: guard.ActionWarn, MaxAction: guard.ActionSafeStop,
		ReactionBudgetFrames: 5,
	}

	ledgerDir, err := os.MkdirTemp("", "safemon-ledger-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ledgerDir)
	store, err := ledger.OpenDisk(ledgerDir, ledger.DiskConfig{})
	if err != nil {
		return nil, err
	}
	app := ledger.NewAppender(store, ledger.Options{})
	defer app.Close()

	srv, err := serve.NewServer(serve.Config{
		Detectors: detectors,
		Policies:  []guard.Policy{policy},
		Ledger:    app,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		hs.Shutdown(ctx)
		srv.Shutdown()
	}()
	client := &serve.Client{BaseURL: "http://" + ln.Addr().String()}

	// Stream the held-out trajectories guarded: clean ones first (no
	// incident expected), then grasper-fault injections from the grid's
	// highest bands (the paper's unambiguous hazards), which must latch.
	attacks := 0
	streams := 0
	grid := faultinject.Table3Grid()
	for i, traj := range fold.Test {
		if err := streamGuardedTrajectory(ctx, client, primary, policy.Name, traj); err != nil {
			return nil, fmt.Errorf("clean stream %d: %w", i, err)
		}
		streams++
	}
	for i, bucket := range grid[len(grid)-4:] {
		demo := fold.Test[i%len(fold.Test)]
		perturbed, _, _, err := faultinject.Inject(demo, faultinject.Fault{
			Variable:    faultinject.GrasperAngle,
			Target:      (bucket.GrasperLo + bucket.GrasperHi) / 2,
			StartFrac:   faultinject.InjectionStartFrac,
			Duration:    (bucket.GrasperDurLo + bucket.GrasperDurHi) / 2,
			Manipulator: kinematics.Left,
		})
		if err != nil {
			return nil, err
		}
		if err := streamGuardedTrajectory(ctx, client, primary, policy.Name, perturbed); err != nil {
			return nil, fmt.Errorf("attack stream %d: %w", i, err)
		}
		streams++
		attacks++
	}

	incidents, err := client.Incidents(ctx, 0)
	if err != nil {
		return nil, err
	}
	if opts.Verbose != nil {
		opts.Verbose(fmt.Sprintf("%d streams captured %d incidents", streams, len(incidents)))
	}
	if len(incidents) == 0 {
		return nil, fmt.Errorf("no incidents captured across %d attack streams", attacks)
	}

	report := incidentsReport{backend: primary, streams: streams, attacks: attacks}
	for _, inc := range incidents {
		// Replay 1: time travel through the original backend and policy.
		// The trail must reproduce byte-identically; anything else means
		// the ledger lost fidelity, which fails the whole drill.
		res, err := client.ReplayIncident(ctx, inc.ID, "", "")
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", inc.ID, err)
		}
		fidelityOK := res.VerdictsMatch && res.ActionsMatch
		// Replay 2: the counterfactual monitor.
		alt, err := client.ReplayIncident(ctx, inc.ID, cross, "")
		if err != nil {
			return nil, fmt.Errorf("cross-replay %s: %w", inc.ID, err)
		}
		crossLatched := false
		for _, a := range alt.Replay.Actions {
			if act, err := guard.ParseAction(a.Level); err == nil && act.Latches() {
				crossLatched = true
			}
		}
		report.rows = append(report.rows, incidentRow{
			id:            inc.ID,
			triggerFrame:  inc.TriggerFrame,
			triggerAction: inc.TriggerAction,
			frames:        inc.Frames,
			peakScore:     inc.PeakScore,
			fidelityOK:    fidelityOK,
			crossBackend:  cross,
			crossActions:  len(alt.Replay.Actions),
			crossLatched:  crossLatched,
		})
		if !fidelityOK {
			return report, fmt.Errorf("incident %s did not replay byte-identically (verdicts=%v actions=%v)",
				inc.ID, res.VerdictsMatch, res.ActionsMatch)
		}
	}
	report.ledger = app.Stats()
	return report, nil
}

// streamGuardedTrajectory replays one trajectory through a guarded NDJSON
// stream to completion.
func streamGuardedTrajectory(ctx context.Context, client *serve.Client, backend, policy string, traj *safemon.Trajectory) error {
	st, err := client.OpenGuarded(ctx, backend, policy, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	for i := range traj.Frames {
		if err := st.Send(&traj.Frames[i]); err != nil {
			return fmt.Errorf("send %d: %w", i, err)
		}
		if _, err := st.Recv(); err != nil {
			return fmt.Errorf("recv %d: %w", i, err)
		}
	}
	if err := st.CloseSend(); err != nil {
		return err
	}
	if _, err := st.Recv(); err != io.EOF {
		return fmt.Errorf("expected done record, got %w", err)
	}
	return nil
}
