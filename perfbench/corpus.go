package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/synth"
	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
	"repro/safemon/serve"
)

// workload is one traffic mix against the in-process server.
type workload struct {
	name    string
	backend string
	// mux multiplexes every session over one binary /v1/mux connection;
	// false streams NDJSON over /v1/stream, one connection per session.
	mux bool
	// sessions is the number of concurrent robots (open loop) or
	// connections (closed loop).
	sessions int
	// hz is each session's frame rate; 0 is a closed loop that sends the
	// next frame as soon as the previous verdict arrives.
	hz float64
	// guarded runs every session under the stop-fast policy with a disk
	// ledger and replays fault-injected trajectories beside clean ones.
	guarded bool
}

var workloads = []workload{
	{name: "monitor-30hz", backend: "context-aware", mux: true, sessions: 32, hz: 30},
	{name: "edge-ndjson", backend: "cascade", sessions: 2},
	{name: "guarded-incidents", backend: "context-aware", mux: true, sessions: 16, hz: 30, guarded: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Corpus and fit settings: the quick-scale suturing set of
// cmd/experiments (12 demos, scale 0.35, LOSO fold 0, 2 epochs, stride 6).
const (
	corpusHz    = 30
	msPerFrame  = 1000.0 / corpusHz
	corpusDemos = 12
	corpusScale = 0.35
	fitEpochs   = 2
	fitStride   = 6
	// guardThreshold is the incidents drill's alert and policy threshold.
	guardThreshold = 0.2
)

// stopFast is the incidents drill's policy: confirm after 2 evidence
// frames, climb one rung per frame to a latching safe-stop.
func stopFast() guard.Policy {
	return guard.Policy{
		Name: "stop-fast", Threshold: guardThreshold,
		DebounceFrames: 2, ReleaseFrames: 2, EscalateFrames: 1,
		InitialAction: guard.ActionWarn, MaxAction: guard.ActionSafeStop,
		ReactionBudgetFrames: 5,
	}
}

// corpus is everything generated from the corpus seed: the training
// demos, the held-out fold, and the trajectories the sessions replay.
type corpus struct {
	train []*safemon.Trajectory
	test  []*safemon.Trajectory
	// replays are the trajectories sessions stream; truths their error
	// ground truth; scored marks the ones detect_f1 and reaction_ms
	// evaluate (human errors in clean replays, or injected faults).
	replays []*safemon.Trajectory
	truths  [][]core.ErrorTruth
	scored  []bool
}

func buildCorpus(w workload, seed int64) (*corpus, error) {
	set, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: corpusHz, Seed: seed,
		NumDemos: corpusDemos, NumTrials: 4, Subjects: 4, DurationScale: corpusScale,
	})
	if err != nil {
		return nil, err
	}
	fold := dataset.LOSO(synth.Trajectories(set))[0]
	c := &corpus{train: fold.Train, test: fold.Test}
	if !w.guarded {
		for _, tr := range fold.Test {
			c.add(tr, core.TruthFromLabels(tr), true)
		}
		return c, nil
	}
	// Clean held-out trajectories alternate with the Table III top-band
	// grasper injections of the incidents drill.
	grid := faultinject.Table3Grid()
	top := grid[len(grid)-4:]
	for i, bucket := range top {
		if i < len(fold.Test) {
			c.add(fold.Test[i], nil, false)
		}
		demo := fold.Test[i%len(fold.Test)]
		perturbed, start, end, err := faultinject.Inject(demo, faultinject.Fault{
			Variable:    faultinject.GrasperAngle,
			Target:      (bucket.GrasperLo + bucket.GrasperHi) / 2,
			StartFrac:   faultinject.InjectionStartFrac,
			Duration:    (bucket.GrasperDurLo + bucket.GrasperDurHi) / 2,
			Manipulator: kinematics.Left,
		})
		if err != nil {
			return nil, err
		}
		truth := []core.ErrorTruth{{Gesture: perturbed.Gestures[start], SegStart: start, SegEnd: end, Onset: start}}
		c.add(perturbed, truth, true)
	}
	for i := len(top); i < len(fold.Test); i++ {
		c.add(fold.Test[i], nil, false)
	}
	return c, nil
}

func (c *corpus) add(tr *safemon.Trajectory, truth []core.ErrorTruth, scored bool) {
	c.replays = append(c.replays, tr)
	c.truths = append(c.truths, truth)
	c.scored = append(c.scored, scored)
}

// labelsOf mirrors what safemon.Runner and serve.Client send: the
// trajectory's gesture labels when every frame has one.
func labelsOf(tr *safemon.Trajectory) []int {
	if len(tr.Gestures) == len(tr.Frames) {
		return tr.Gestures
	}
	return nil
}

func detectorOptions(w workload, seed int64) []safemon.Option {
	opts := []safemon.Option{safemon.WithSeed(seed), safemon.WithEpochs(fitEpochs), safemon.WithTrainStride(fitStride)}
	if w.guarded {
		opts = append(opts, safemon.WithThreshold(guardThreshold))
	}
	return opts
}

func fitDetector(ctx context.Context, backend string, w workload, c *corpus, seed int64) (safemon.Detector, error) {
	det, err := safemon.Open(backend, detectorOptions(w, seed)...)
	if err != nil {
		return nil, err
	}
	if err := det.Fit(ctx, c.train); err != nil {
		return nil, err
	}
	return det, nil
}

// service is one in-process safemond on a loopback listener.
type service struct {
	corpus *corpus
	det    safemon.Detector
	srv    *serve.Server
	hs     *http.Server
	served chan error
	app    *ledger.Appender
	dir    string
	base   string
}

// startService generates the corpus, fits the workload's detector and
// serves it, returning once /readyz answers. This is what setup_s times.
func startService(ctx context.Context, w workload, seed int64, tmp string) (*service, error) {
	c, err := buildCorpus(w, seed)
	if err != nil {
		return nil, err
	}
	det, err := fitDetector(ctx, w.backend, w, c, seed)
	if err != nil {
		return nil, err
	}
	s := &service{corpus: c, det: det, served: make(chan error, 1)}
	cfg := serve.Config{
		Detectors: map[string]safemon.Detector{w.backend: det},
		Manager:   serve.ManagerConfig{MaxSessions: w.sessions + 8},
	}
	if w.guarded {
		if s.app, s.dir, err = openDiskLedger(tmp); err != nil {
			return nil, err
		}
		cfg.Policies = []guard.Policy{stopFast()}
		cfg.Ledger = s.app
	}
	if s.srv, err = serve.NewServer(cfg); err != nil {
		s.closeLedger()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown()
		s.closeLedger()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	if err := waitReady(ctx, s.base); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func openDiskLedger(tmp string) (*ledger.Appender, string, error) {
	dir, err := os.MkdirTemp(tmp, "ledger-")
	if err != nil {
		return nil, "", err
	}
	store, err := ledger.OpenDisk(dir, ledger.DiskConfig{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return ledger.NewAppender(store, ledger.Options{}), dir, nil
}

func waitReady(ctx context.Context, base string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Second}
	for i := 0; i < 200; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became ready", base)
}

// stop drains the HTTP server and the shards and removes the ledger.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.srv.Shutdown()
	s.closeLedger()
}

func (s *service) closeLedger() {
	if s.app != nil {
		s.app.Close()
		os.RemoveAll(s.dir)
	}
}

// reference is the offline expectation for every replay trajectory: the
// Runner's verdicts and, on guarded workloads, the action trail of an
// offline guarded session.
type reference struct {
	verdicts [][]safemon.FrameVerdict
	trails   [][]serve.ActionMsg
}

func buildReference(ctx context.Context, w workload, s *service) (*reference, error) {
	traces, err := (&safemon.Runner{Detector: s.det, Workers: 1}).Traces(ctx, s.corpus.replays)
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	for _, tr := range traces {
		ref.verdicts = append(ref.verdicts, tr.Verdicts)
	}
	if !w.guarded {
		return ref, nil
	}
	policy := stopFast()
	for i, tr := range s.corpus.replays {
		trail, verdicts, err := offlineTrail(s.det, tr, policy)
		if err != nil {
			return nil, err
		}
		if mismatch := countMismatches(verdicts, ref.verdicts[i]); mismatch > 0 {
			return nil, fmt.Errorf("guarded offline session diverges from the Runner on replay %d (%d frames)", i, mismatch)
		}
		ref.trails = append(ref.trails, trail)
	}
	return ref, nil
}

// offlineTrail replays a trajectory through a guarded session and returns
// the action records a guarded stream of the same policy must carry.
func offlineTrail(det safemon.Detector, tr *safemon.Trajectory, p guard.Policy) ([]serve.ActionMsg, []safemon.FrameVerdict, error) {
	sess, err := det.NewSession(safemon.WithSessionLabels(labelsOf(tr)), safemon.WithGuard(p))
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	gs, ok := sess.(safemon.GuardedSession)
	if !ok {
		return nil, nil, fmt.Errorf("session opened WithGuard is not guarded")
	}
	var trail []serve.ActionMsg
	verdicts := make([]safemon.FrameVerdict, 0, len(tr.Frames))
	for i := range tr.Frames {
		v, err := gs.Push(&tr.Frames[i])
		if err != nil {
			return nil, nil, err
		}
		verdicts = append(verdicts, v)
		if d := gs.Decision(); d.Changed {
			trail = append(trail, serve.ActionMsg{
				I: d.FrameIndex, Level: d.Action.String(), AlertFrame: d.AlertFrame,
				Score: d.Score, Policy: p.Name,
			})
		}
	}
	return trail, verdicts, nil
}

// countMismatches counts the served verdicts that are not == to the
// reference prefix of the same length; verdicts beyond the reference
// count as mismatches too.
func countMismatches(served, ref []safemon.FrameVerdict) int {
	n := 0
	for i, v := range served {
		if i >= len(ref) || v != ref[i] {
			n++
		}
	}
	return n
}
