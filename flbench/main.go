// Command flbench is the repository's benchmark. Given a workload and a
// seed it runs one fixed-work federated simulation after another, each in
// a fresh child process, for a fixed time (a closed loop: the next
// simulation starts when the previous one ends), checks every run, and
// prints the end-to-end metrics, or with --trace 1 the per-layer metrics
// of traced runs, as the last line of its output. From the repository
// root:
//
//	bash flbench/run.sh --workload fedcross-cnn --seed 1 --seconds 35 --trace 0
//
// The line before it is the host fingerprint (CPU model, CPU count,
// GOMAXPROCS, GOARCH, Go version, tensor backend). Spans of the last
// traced simulation of each workload are written to
// .bench_build/spans/<workload>.jsonl, one JSON object per line.
//
// Spans are recorded only from this package, by wrapping the seams the
// engines already call: the tensor backend, the federation's client
// source and the fl.Algorithm given to fl.Run. A traced run is paired
// with an unwrapped one and their histories must be equal, so a wrapper
// cannot silently change what is measured.
//
// The smoke test (go test, from this directory) runs every workload at a
// fifth of its length and checks that a deliberately broken run fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"fedcross/internal/tensor"
)

// childEnv carries the mode of a child simulation process.
const childEnv = "FLBENCH_CHILD"

// metric is one reported metric as declared in BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run; bounds are the share by
// which a metric's median may worsen before a change is a regression.
// On a shared 2-vCPU VM the run-to-run spread (IQR over median, ten
// seeds) of samples_per_s is 5-10%, driven by CPU steal that varies
// from minute to minute, and peak RSS varies up to ~12% with GC timing,
// so both get the widest bound. final_acc varies ~3% across seeds;
// wire bytes and update_ok_frac are exact.
//
// update_ok_frac is the complement of the failed-update fraction: a
// clean run fails no update, and a metric that reads 0 has no spread
// to judge it by.
var endToEnd = []metric{
	{"samples_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"final_acc", "frac", "higher", 0.1},
	{"wire_kb_per_round", "KiB", "lower", 0.05},
	{"update_ok_frac", "frac", "higher", 0.05},
}

// perLayer are the metrics of a traced run.
var perLayer = []metric{
	{"data.lease_busy_s", "s", "lower", 0},
	{"data.leases", "count", "lower", 0},
	{"data.cache_hit_ratio", "frac", "higher", 0},
	{"data.evictions", "count", "lower", 0},
	{"fl.train_busy_s", "s", "lower", 0},
	{"fl.train_idle_frac", "frac", "lower", 0},
	{"tensor.gemm_busy_s", "s", "lower", 0},
	{"tensor.gemm_calls", "count", "lower", 0},
	{"tensor.gemm_gflop", "GFLOP", "lower", 0},
	{"tensor.gemm_gflops", "GFLOP/s", "higher", 0},
	{"nn.nongemm_busy_s", "s", "lower", 0},
	{"fl.round_ms_p50", "ms", "lower", 0},
	{"fl.round_ms_p90", "ms", "lower", 0},
	{"fl.rounds", "count", "higher", 0},
	{"fl.round_self_s", "s", "lower", 0},
	{"core.global_s", "s", "lower", 0},
	{"fl.eval_s", "s", "lower", 0},
	{"fl.engine_self_s", "s", "lower", 0},
	{"fl.wire_bytes_up", "B", "lower", 0},
	{"fl.wire_bytes_down", "B", "lower", 0},
	{"fl.checkpoints", "count", "lower", 0},
	{"fl.checkpoint_kb", "KiB", "lower", 0},
	{"runtime.mallocs_per_round", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_s", "s", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runConfig is one benchmark invocation.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	opts    simOptions
}

// simRunner runs one simulation of the configured workload in a mode.
type simRunner func(m mode) (*simResult, error)

func main() {
	if m := os.Getenv(childEnv); m != "" {
		os.Exit(childMain(mode(m), os.Args[1:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("flbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics of traced runs")
	workDir := fs.String("workdir", ".bench_build", "directory for checkpoints and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "flbench: bad arguments (workload %q: %v, trace %d, seconds %v)\n", *name, err, *trace, *secs)
		return 2
	}
	rc := runConfig{w: *w, seed: *seed, seconds: *secs, trace: *trace == 1, opts: simOptions{workDir: *workDir}}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flbench: %v\n", err)
		return 1
	}
	host, _ := json.Marshal(map[string]any{"host": hostFingerprint()})
	fmt.Fprintln(stdout, string(host))
	rep := measure(rc, childRunner(self, rc), stdout)
	line, _ := json.Marshal(rep)
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// childRunner runs each simulation in a fresh process of the given
// executable, so every run starts cold and reports its own peak RSS.
func childRunner(exe string, rc runConfig) simRunner {
	return func(m mode) (*simResult, error) {
		cmd := exec.Command(exe,
			"-workload", rc.w.name,
			"-seed", fmt.Sprint(rc.seed),
			"-scale", fmt.Sprint(rc.opts.scale),
			"-workdir", rc.opts.workDir)
		cmd.Env = append(os.Environ(), childEnv+"="+string(m))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s child: %w", m, err)
		}
		var res simResult
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, fmt.Errorf("%s child output: %w", m, err)
		}
		return &res, nil
	}
}

// childMain runs one simulation and writes its result as JSON.
func childMain(m mode, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("flbench-child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	scale := fs.Float64("scale", 0, "run length multiplier")
	workDir := fs.String("workdir", ".bench_build", "directory for checkpoints and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flbench: %v\n", err)
		return 2
	}
	res := runSim(*w, *seed, m, simOptions{scale: *scale, workDir: *workDir})
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "flbench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs simulations for rc.seconds and aggregates them. Untraced
// runs repeat the counting simulation; traced runs repeat pairs of a
// plain and a traced simulation, alternating which goes first, so the
// tracing overhead is a paired measurement. It runs at least one
// simulation (pair) and starts another only if it is expected to finish
// within the time.
func measure(rc runConfig, run simRunner, log io.Writer) report {
	w := rc.w.scaled(rc.opts.scale)
	start := time.Now()
	var sims []*simResult
	// ref is the first simulation; every later one, traced or repeated,
	// must return the same history field for field.
	var ref *simResult
	var failures []string
	var attempted, failed int64
	var walls []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		var batch []*simResult
		modes := []mode{modeCount}
		if rc.trace {
			modes = []mode{modePlain, modeTraced}
			if i%2 == 1 {
				modes = []mode{modeTraced, modePlain}
			}
		}
		var batchFailures []string
		for _, m := range modes {
			res, err := run(m)
			if err != nil {
				batchFailures = append(batchFailures, err.Error())
				continue
			}
			fmt.Fprintf(log, "sim %d %s: setup %.3fs run %.3fs samples %d rss %.1fMiB acc %.4f failures %q\n",
				i, m, res.SetupS, res.RunS, res.Samples, res.PeakRSSMB, finalAcc(res), res.Failures)
			batchFailures = append(batchFailures, res.Failures...)
			if ref == nil {
				ref = res
			}
			if !reflect.DeepEqual(res.History, ref.History) {
				batchFailures = append(batchFailures, fmt.Sprintf("sim %d %s: history differs from sim 0 %s", i, m, ref.Mode))
			}
			batch = append(batch, res)
		}
		// Work is counted by the simulations that counted leases; a
		// batch that failed anywhere counts all of its updates failed.
		var a, f int64
		for _, res := range batch {
			a += res.Attempted
			f += res.Failed
		}
		if a == 0 {
			a = int64(w.nominalUpdates())
		}
		if len(batchFailures) > 0 {
			f = a
		}
		attempted += a
		failed += f
		failures = append(failures, batchFailures...)
		sims = append(sims, batch...)
		walls = append(walls, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(walls) > rc.seconds {
			break
		}
	}
	for _, f := range failures {
		fmt.Fprintf(log, "check failed: %s\n", f)
	}
	rep := report{Correct: len(failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	if rc.trace {
		fillLayers(rep.Metrics, sims)
	} else {
		fillEndToEnd(rep.Metrics, sims, w, attempted, failed)
	}
	return rep
}

func finalAcc(res *simResult) float64 {
	if res.History == nil {
		return 0
	}
	return res.History.Final().TestAcc
}

func fillEndToEnd(out map[string]value, sims []*simResult, w workload, attempted, failed int64) {
	var rate, setup, rss []float64
	for _, s := range sims {
		if s.RunS > 0 {
			rate = append(rate, float64(s.Samples)/s.RunS)
		}
		setup = append(setup, s.SetupS)
		rss = append(rss, s.PeakRSSMB)
	}
	var acc, wire float64
	if len(sims) > 0 && sims[0].History != nil {
		h := sims[0].History
		acc = h.Final().TestAcc
		wire = float64(h.TotalBytes()) / 1024 / float64(w.profile.Rounds)
	}
	ok := 0.0
	if attempted > 0 {
		ok = 1 - float64(failed)/float64(attempted)
	}
	vals := map[string]float64{
		"samples_per_s":     median(rate),
		"setup_s":           median(setup),
		"peak_rss_mb":       median(rss),
		"final_acc":         acc,
		"wire_kb_per_round": wire,
		"update_ok_frac":    ok,
	}
	for _, m := range endToEnd {
		out[m.Name] = value{vals[m.Name], m.Unit}
	}
}

func fillLayers(out map[string]value, sims []*simResult) {
	var plain, traced []float64
	layers := map[string][]float64{}
	for _, s := range sims {
		switch s.Mode {
		case modePlain:
			plain = append(plain, s.RunS)
		case modeTraced:
			traced = append(traced, s.RunS)
			for k, v := range s.Layers {
				layers[k] = append(layers[k], v)
			}
		}
	}
	overhead := 0.0
	if t := median(traced); t > 0 {
		// Both modes do the same work, so the ratio of their sample
		// rates is the inverse ratio of their run times.
		overhead = 1 - median(plain)/t
	}
	layers["trace.overhead_frac"] = []float64{overhead}
	for _, m := range perLayer {
		out[m.Name] = value{median(layers[m.Name]), m.Unit}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostFingerprint identifies the machine and build a result came from.
func hostFingerprint() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"go_version": runtime.Version(),
		"backend":    tensor.CurrentBackend().Name(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
