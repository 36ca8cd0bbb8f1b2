package main

// Layer probes for the traced run. Each layer is timed from outside, by
// calling that layer's public functions on the inputs it sees when the
// served model runs: the nn layers as one-layer networks over the real
// intermediate activations, core and kinematics over the held-out fold,
// and the safemon, serve, guard and ledger layers over the replays. A
// fidelity check first proves that the probed chain is the served model.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kinematics"
	"repro/internal/nn"
	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
	"repro/safemon/serve"
)

// probeRepeats is how many times each timed loop runs; the median is
// reported.
const probeRepeats = 5

// timeLoop runs fn probeRepeats times and returns the median duration of
// one call to fn.
func timeLoop(fn func()) time.Duration {
	ds := make([]float64, probeRepeats)
	for r := range ds {
		t := time.Now()
		fn()
		ds[r] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// monitorOf recovers the core.Monitor a context-aware detector serves by
// decoding its own saved artifact: the framing is magic, u16 version,
// u16 reserved, u16 name length, name, u64 payload length, payload, CRC,
// and the gob payload carries the monitor bundle core.DecodeMonitor reads.
func monitorOf(det safemon.Detector, seed int64) (*core.Monitor, error) {
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	if len(data) < 10 {
		return nil, fmt.Errorf("artifact too short")
	}
	off := 10 + int(binary.BigEndian.Uint16(data[8:10]))
	if len(data) < off+8 {
		return nil, fmt.Errorf("artifact truncated")
	}
	n := binary.BigEndian.Uint64(data[off : off+8])
	off += 8
	if uint64(len(data)-off) < n {
		return nil, fmt.Errorf("artifact payload truncated")
	}
	var payload struct{ Monitor []byte }
	if err := gob.NewDecoder(bytes.NewReader(data[off : off+int(n)])).Decode(&payload); err != nil {
		return nil, fmt.Errorf("decode artifact payload: %w", err)
	}
	mon, err := core.DecodeMonitor(bytes.NewReader(payload.Monitor), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	if mon.Gestures == nil || !mon.Errors.GestureSpecific {
		return nil, fmt.Errorf("probed detector has no gesture classifier")
	}
	return mon, nil
}

// window is a fixed-capacity sliding window of standardized feature rows.
type window struct {
	ext  *kinematics.Extractor
	std  *kinematics.Standardizer
	cap  int
	rows [][]float64
}

func newWindow(fs kinematics.FeatureSet, std *kinematics.Standardizer, capacity int) *window {
	return &window{ext: fs.NewExtractor(), std: std, cap: capacity}
}

func (w *window) reset() { w.rows = w.rows[:0] }

// push extracts and standardizes one frame and returns a copy of the
// current window, oldest row first.
func (w *window) push(f *kinematics.Frame) [][]float64 {
	row := w.ext.ExtractInto(f, make([]float64, w.ext.Dim()))
	if w.std != nil {
		w.std.Transform(row)
	}
	if len(w.rows) == w.cap {
		w.rows = w.rows[1:]
	}
	w.rows = append(w.rows, row)
	return append([][]float64(nil), w.rows...)
}

// layerName is a layer's probe name: its index and lower-case type.
func layerName(i int, l nn.Layer) string {
	t := fmt.Sprintf("%T", l)
	return fmt.Sprintf("%d_%s", i, strings.ToLower(t[strings.LastIndexByte(t, '.')+1:]))
}

// layerMACs counts one call's multiply-accumulates from the shapes.
func layerMACs(l nn.Layer, x [][]float64) float64 {
	if len(x) == 0 {
		return 0
	}
	T, in := float64(len(x)), float64(len(x[0]))
	switch v := l.(type) {
	case *nn.LSTM:
		h := float64(v.Hidden)
		return T * 4 * h * (in + h)
	case *nn.Dense:
		return T * float64(v.Out) * in
	case *nn.Conv1D:
		outT := T - float64(v.K) + 1
		if outT < 1 {
			outT = 1
		}
		return outT * float64(v.Out) * in * float64(v.K)
	}
	return 0
}

// chain holds one network's activations over a set of windows: acts[i]
// is layer i's input for every window, acts[len(layers)] the output.
type chain struct {
	net  *nn.Network
	acts [][][][]float64
}

func runChain(net *nn.Network, windows [][][]float64) *chain {
	c := &chain{net: net, acts: [][][][]float64{windows}}
	for _, l := range net.Layers {
		in := c.acts[len(c.acts)-1]
		out := make([][][]float64, len(in))
		for w, x := range in {
			out[w] = l.Forward(x, false)
		}
		c.acts = append(c.acts, out)
	}
	return c
}

func (c *chain) logits(w int) []float64 {
	out := c.acts[len(c.acts)-1][w]
	return out[len(out)-1]
}

// layerCost times every layer of the chain as a one-layer network's
// Predictor over its real inputs, checking that the Predictor reproduces
// the chain bit for bit. It returns the total ns and MACs per layer.
func (c *chain) layerCost() (ns, macs []float64, err error) {
	maxT := 0
	for _, x := range c.acts[0] {
		if len(x) > maxT {
			maxT = len(x)
		}
	}
	for i, l := range c.net.Layers {
		in, out := c.acts[i], c.acts[i+1]
		p := nn.NewNetwork(l).NewPredictor(maxT, len(in[0][0]))
		var m float64
		for w, x := range in {
			got := p.Forward(x)
			want := out[w][len(out[w])-1]
			if !equalRow(got, want) {
				return nil, nil, fmt.Errorf("layer %s: one-layer Predictor diverges from Forward on window %d", layerName(i, l), w)
			}
			m += layerMACs(l, x)
		}
		d := timeLoop(func() {
			for _, x := range in {
				p.Forward(x)
			}
		})
		ns = append(ns, float64(d.Nanoseconds()))
		macs = append(macs, m)
	}
	return ns, macs, nil
}

func equalRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeInput is the traced run's view of the served model and traffic.
type probeInput struct {
	w      workload
	det    safemon.Detector // the served detector
	nnDet  safemon.Detector // the context-aware detector whose layers are probed
	corpus *corpus
	ref    *reference
	seed   int64
	tmp    string
}

// probeLayers runs the fidelity check and every layer probe, adding the
// per-layer metrics to out.
func probeLayers(ctx context.Context, in probeInput, out map[string]metric) error {
	mon, err := monitorOf(in.nnDet, in.seed)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	mon.Threshold = in.nnDet.Info().Threshold
	trajs := in.corpus.test

	// core.Stream over the held-out fold, checked against the served
	// safemon session frame for frame.
	var coreVerdicts [][]core.FrameVerdict
	frames, correct := 0, 0
	for _, tr := range trajs {
		st, err := mon.NewStream(labelsOf(tr))
		if err != nil {
			return err
		}
		sess, err := in.nnDet.NewSession(safemon.WithSessionLabels(labelsOf(tr)))
		if err != nil {
			return err
		}
		vs := make([]core.FrameVerdict, len(tr.Frames))
		for i := range tr.Frames {
			vs[i] = st.Push(&tr.Frames[i])
			sv, err := sess.Push(&tr.Frames[i])
			if err != nil {
				return err
			}
			if sv != vs[i] {
				return fmt.Errorf("fidelity: core.Stream.Push diverges from the safemon session at frame %d", i)
			}
			if vs[i].Gesture == tr.Gestures[i] {
				correct++
			}
		}
		sess.Close()
		frames += len(tr.Frames)
		coreVerdicts = append(coreVerdicts, vs)
	}
	out["core.gesture_acc"] = metric{float64(correct) / float64(frames), "ratio"}

	// Rebuild both stages' windows from the frames, as kinematics
	// extraction and standardization do inside core.Stream.
	gc, lib := mon.Gestures, mon.Errors
	gw := newWindow(gc.Config.Features, gc.Standardizer, gc.Config.Window)
	ew := newWindow(lib.Config.Features, lib.Standardizer, lib.Config.Window)
	var gWins, eWins [][][]float64
	for _, tr := range trajs {
		gw.reset()
		ew.reset()
		for i := range tr.Frames {
			gWins = append(gWins, gw.push(&tr.Frames[i]))
			eWins = append(eWins, ew.push(&tr.Frames[i]))
		}
	}
	extract := timeLoop(func() {
		g := make([]float64, gw.ext.Dim())
		e := make([]float64, ew.ext.Dim())
		for _, tr := range trajs {
			for i := range tr.Frames {
				gc.Standardizer.Transform(gw.ext.ExtractInto(&tr.Frames[i], g))
				lib.Standardizer.Transform(ew.ext.ExtractInto(&tr.Frames[i], e))
			}
		}
	})
	out["kinematics.extract_us"] = metric{perFrameUS(extract, frames), "us"}

	// Gesture classifier, layer by layer, then the head each frame's
	// predicted gesture selects (the global head as fallback).
	gChain := runChain(gc.Net, gWins)
	heads := map[*nn.Network][]int{}
	var headOrder []*nn.Network
	gestures := make([]int, len(gWins))
	for w := range gWins {
		gestures[w] = nn.Argmax(gChain.logits(w))
		net := lib.PerGesture[gestures[w]]
		if net == nil {
			net = lib.Global
		}
		if net == nil {
			continue
		}
		if heads[net] == nil {
			headOrder = append(headOrder, net)
		}
		heads[net] = append(heads[net], w)
	}
	scores := make([]float64, len(gWins))
	headChains := make([]*chain, len(headOrder))
	for h, net := range headOrder {
		idx := heads[net]
		wins := make([][][]float64, len(idx))
		for k, w := range idx {
			wins[k] = eWins[w]
		}
		headChains[h] = runChain(net, wins)
		for k, w := range idx {
			scores[w] = nn.Softmax(headChains[h].logits(k))[1]
		}
	}
	w := 0
	for t, vs := range coreVerdicts {
		for i, v := range vs {
			if v.Gesture != gestures[w] || v.Score != scores[w] {
				return fmt.Errorf("fidelity: layer chain diverges from core.Stream.Push on trajectory %d frame %d", t, i)
			}
			w++
		}
	}

	gNS, gMACs, err := gChain.layerCost()
	if err != nil {
		return fmt.Errorf("fidelity: %w", err)
	}
	for i, l := range gc.Net.Layers {
		name := "nn.gesture." + layerName(i, l)
		out[name+".ns"] = metric{gNS[i] / float64(frames), "ns"}
		if gMACs[i] > 0 {
			out[name+".macs"] = metric{gMACs[i] / float64(frames), "count"}
		}
	}
	var hNS, hMACs []float64
	var headLayers []nn.Layer
	for h, hc := range headChains {
		ns, macs, err := hc.layerCost()
		if err != nil {
			return fmt.Errorf("fidelity: %w", err)
		}
		if h == 0 {
			headLayers = hc.net.Layers
			hNS, hMACs = make([]float64, len(ns)), make([]float64, len(ns))
		}
		if len(ns) != len(hNS) {
			return fmt.Errorf("probe: error heads differ in depth")
		}
		for i := range ns {
			hNS[i] += ns[i]
			hMACs[i] += macs[i]
		}
	}
	for i, l := range headLayers {
		name := "nn.head." + layerName(i, l)
		out[name+".ns"] = metric{hNS[i] / float64(frames), "ns"}
		if hMACs[i] > 0 {
			out[name+".macs"] = metric{hMACs[i] / float64(frames), "count"}
		}
	}

	// The two stages whole, as core.Stream calls them.
	gp := gc.Net.NewPredictor(gc.Config.Window, gw.ext.Dim())
	gestureD := timeLoop(func() {
		for _, x := range gWins {
			gp.PredictClass(x)
		}
	})
	out["core.gesture_us"] = metric{perFrameUS(gestureD, frames), "us"}
	var headD time.Duration
	for _, net := range headOrder {
		p := net.NewPredictor(lib.Config.Window, ew.ext.Dim())
		idx := heads[net]
		headD += timeLoop(func() {
			for _, w := range idx {
				p.Predict(eWins[w])
			}
		})
	}
	out["core.error_head_us"] = metric{perFrameUS(headD, frames), "us"}
	pushD := timeLoop(func() {
		for _, tr := range trajs {
			st, _ := mon.NewStream(labelsOf(tr))
			for i := range tr.Frames {
				st.Push(&tr.Frames[i])
			}
		}
	})
	out["core.stream.push_us"] = metric{perFrameUS(pushD, frames), "us"}

	if err := probeServing(ctx, in, out); err != nil {
		return err
	}
	return probeGuardLedger(in, out)
}

func perFrameUS(d time.Duration, frames int) float64 {
	return float64(d.Nanoseconds()) / float64(frames) / 1e3
}

// probeServing times the served backend as a bare safemon session (with
// the workload's guard and ledger options) and through the shard manager
// without HTTP.
func probeServing(ctx context.Context, in probeInput, out map[string]metric) error {
	replays := in.corpus.replays
	frames := 0
	for _, tr := range replays {
		frames += len(tr.Frames)
	}
	var app *ledger.Appender
	if in.w.guarded {
		a, dir, err := openDiskLedger(in.tmp)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		defer a.Close()
		app = a
	}
	var sessErr error
	sessD := timeLoop(func() {
		for _, tr := range replays {
			opts := []safemon.SessionOption{safemon.WithSessionLabels(labelsOf(tr))}
			if in.w.guarded {
				opts = append(opts, safemon.WithGuard(stopFast()), safemon.WithLedger(app, in.w.backend, "probe"))
			}
			sess, err := in.det.NewSession(opts...)
			if err != nil {
				sessErr = err
				return
			}
			for i := range tr.Frames {
				sess.Push(&tr.Frames[i])
			}
			sess.Close()
		}
	})
	if sessErr != nil {
		return sessErr
	}
	out["safemon.session.push_us"] = metric{perFrameUS(sessD, frames), "us"}

	m, err := serve.NewManager(map[string]safemon.Detector{in.w.backend: in.det}, serve.ManagerConfig{})
	if err != nil {
		return err
	}
	defer m.Close()
	var shardErr error
	shardD := timeLoop(func() {
		for _, tr := range replays {
			s, err := m.Open(in.w.backend, labelsOf(tr))
			if err != nil {
				shardErr = err
				return
			}
			for i := range tr.Frames {
				if _, err := s.Push(ctx, &tr.Frames[i]); err != nil {
					shardErr = err
				}
			}
			s.Release(shardErr == nil)
		}
	})
	if shardErr != nil {
		return shardErr
	}
	out["serve.shard.push_us"] = metric{perFrameUS(shardD, frames), "us"}
	return nil
}

// probeGuardLedger steps the stop-fast engine over the replays' reference
// verdicts and records them, with their frames, into a disk ledger.
func probeGuardLedger(in probeInput, out map[string]metric) error {
	replays := in.corpus.replays
	frames := 0
	for _, tr := range replays {
		frames += len(tr.Frames)
	}
	eng := guard.MustEngine(stopFast())
	actions := 0
	for _, vs := range in.ref.verdicts {
		eng.Reset()
		for _, v := range vs {
			if eng.Step(v).Changed {
				actions++
			}
		}
	}
	stepD := timeLoop(func() {
		for _, vs := range in.ref.verdicts {
			eng.Reset()
			for _, v := range vs {
				eng.Step(v)
			}
		}
	})
	out["guard.step_ns"] = metric{float64(stepD.Nanoseconds()) / float64(frames), "ns"}
	out["guard.actions"] = metric{float64(actions), "count"}

	app, dir, err := openDiskLedger(in.tmp)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var emit time.Duration
	for t, tr := range replays {
		rec := ledger.NewRecorder(app, in.w.backend, "probe", stopFast().Name)
		rec.Start(nil)
		start := time.Now()
		for i, v := range in.ref.verdicts[t] {
			rec.Verdict(v, &tr.Frames[i])
		}
		emit += time.Since(start)
		rec.End(len(tr.Frames), "eof")
	}
	app.Flush()
	st := app.Stats()
	if err := app.Close(); err != nil {
		return err
	}
	out["ledger.emit_ns"] = metric{float64(emit.Nanoseconds()) / float64(frames), "ns"}
	out["ledger.bytes_per_frame"] = metric{float64(st.Bytes) / float64(frames), "B"}
	out["ledger.dropped"] = metric{float64(st.Dropped), "count"}
	return nil
}
