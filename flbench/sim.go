package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
	"fedcross/internal/tensor"
)

// mode selects how one simulation is instrumented.
type mode string

const (
	// modeCount wraps the client source to count leases and sample
	// passes but reads no clock: the end-to-end metrics come from it.
	modeCount mode = "count"
	// modePlain runs the program with no wrapper at all: the reference
	// the traced history is compared against, and the denominator of
	// the tracing overhead.
	modePlain mode = "plain"
	// modeTraced wraps the source, the algorithm and the tensor backend
	// and records spans: the per-layer metrics come from it.
	modeTraced mode = "traced"
)

// simResult is what one simulation reports to the benchmark's parent
// process.
type simResult struct {
	Mode      mode        `json:"mode"`
	SetupS    float64     `json:"setup_s"`
	RunS      float64     `json:"run_s"`
	Samples   int64       `json:"samples"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	PeakRSSMB float64     `json:"peak_rss_mb"`
	History   *fl.History `json:"history"`
	// Failures lists every correctness check the run failed.
	Failures []string           `json:"failures,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

// simOptions are the knobs of one simulation that are not part of the
// workload.
type simOptions struct {
	// scale shortens the workload (see workload.scaled); 0 runs it whole.
	scale float64
	// workDir holds checkpoint files and written spans.
	workDir string
	// wrapSource, when set, wraps the benchmark's source wrapper. The
	// smoke test uses it to break a run on purpose.
	wrapSource func(data.ClientSource) data.ClientSource
}

// runSim builds the workload's environment, runs one simulation in the
// given mode and checks it.
func runSim(w workload, seed int64, m mode, o simOptions) *simResult {
	w = w.scaled(o.scale)
	res := &simResult{Mode: m}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	dataSeed, runSeed := seeds(seed)

	t0 := time.Now()
	env, err := w.profile.BuildEnv(w.dataset, w.model, w.het, dataSeed)
	res.SetupS = time.Since(t0).Seconds()
	if err != nil {
		fail("build env: %v", err)
		return res
	}

	var tr *tracer
	var src *source
	if m != modePlain {
		if m == modeTraced {
			tr = newTracer(int64(os.Getpid()))
		}
		inner := env.Fed.Source
		if inner == nil {
			// Eager shards behind the pass-through source: every lease is
			// the same slice read the engines make without a source.
			inner = data.NewMaterialized(env.Fed.Clients)
			env.Fed.Clients = nil
		}
		src = &source{inner: inner, epochs: w.profile.LocalEpochs, tr: tr}
		env.Fed.Source = wrapSource(src)
		if o.wrapSource != nil {
			env.Fed.Source = o.wrapSource(env.Fed.Source)
		}
	}
	if tr != nil {
		prev := tensor.CurrentBackend()
		tensor.SetBackend(backend{Backend: prev, tr: tr})
		defer tensor.SetBackend(prev)
	}

	ckptPath := ""
	if w.ckptEvery > 0 {
		dir := filepath.Join(o.workDir, "ckpt")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fail("checkpoint dir: %v", err)
			return res
		}
		ckptPath = filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", w.name, os.Getpid()))
		defer os.Remove(ckptPath)
	}
	cfg := w.config(runSeed, ckptPath)

	var algo fl.Algorithm
	if w.algo != "" {
		if algo, err = experiments.NewAlgorithm(w.algo); err != nil {
			fail("algorithm: %v", err)
			return res
		}
		if tr != nil {
			algo = wrapAlgorithm(&algorithm{inner: algo, tr: tr})
		}
	}

	cacheBefore, _ := env.Fed.SourceStats()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	var runStart int64
	if tr != nil {
		runStart = tr.now()
	}
	t0 = time.Now()
	var hist *fl.History
	if algo != nil {
		hist, err = fl.Run(algo, env, cfg)
	} else {
		hist, err = fl.RunAsync(env, cfg, fl.AsyncOptions{})
	}
	res.RunS = time.Since(t0).Seconds()
	if tr != nil {
		tr.record(runSpanID, spanRun, 0, runStart, tr.now())
	}
	runtime.ReadMemStats(&msAfter)
	cacheAfter, _ := env.Fed.SourceStats()
	res.History = hist

	if err != nil {
		fail("run: %v", err)
	}
	if n := env.Fed.OutstandingLeases(); n != 0 {
		fail("%d shard leases outstanding after the run", n)
	}
	if hist != nil {
		if got, want := len(hist.Metrics), w.evalPoints(); got != want {
			fail("%d eval metrics, want %d", got, want)
		}
		if acc, floor := hist.Final().TestAcc, w.chance+accMargin; !(acc > floor) {
			fail("final accuracy %.4f not above the chance floor %.2f", acc, floor)
		}
	}
	var ckptBytes int64
	if ckptPath != "" {
		if st, err := os.Stat(ckptPath); err != nil {
			fail("checkpoint: %v", err)
		} else {
			ckptBytes = st.Size()
		}
	}

	if src != nil {
		res.Samples = src.samples.Load()
		res.Attempted = src.leases.Load()
		if hist != nil {
			// A crashed client never leases its shard; stragglers and
			// fault drops trained but their uploads were lost.
			res.Attempted += int64(hist.Crashes)
			res.Failed = int64(hist.Stragglers + hist.FaultDrops + hist.Crashes)
		}
		if len(res.Failures) > 0 {
			res.Failed = res.Attempted
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		fail("peak RSS: %v", err)
	}
	res.PeakRSSMB = rss

	if tr != nil {
		res.Layers = layerMetrics(tr, w, cfg.Workers(), hist, layerInputs{
			cacheBefore: cacheBefore, cacheAfter: cacheAfter,
			memBefore: &msBefore, memAfter: &msAfter,
			ckptBytes: ckptBytes,
		})
		if err := tr.writeFile(filepath.Join(o.workDir, "spans", w.name+".jsonl")); err != nil {
			fail("%v", err)
		}
	}
	return res
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
