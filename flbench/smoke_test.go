package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"fedcross/internal/data"
)

// smokeScale shortens every workload to a fifth of its length: long
// enough that each still learns past its chance floor.
const smokeScale = 0.2

// TestMain lets the test binary serve as the benchmark's child process,
// so the smoke test drives the same subprocess path the benchmark uses.
func TestMain(m *testing.M) {
	if md := os.Getenv(childEnv); md != "" {
		os.Exit(childMain(mode(md), os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{w: w, seed: 1, seconds: 0.001, trace: trace,
				opts: simOptions{scale: smokeScale, workDir: t.TempDir()}}
			rep := measure(rc, childRunner(exe, rc), testLog{t})
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := rep.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, v, m.Unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// leakySource drops the first Release it is given, leaking one lease.
type leakySource struct {
	data.ClientSource
	dropped bool
}

func (s *leakySource) Release(id int) {
	if !s.dropped {
		s.dropped = true
		return
	}
	s.ClientSource.Release(id)
}

func TestBrokenRunFailsCheck(t *testing.T) {
	w, err := workloadByName("fedcross-cnn")
	if err != nil {
		t.Fatal(err)
	}
	leak := func(s data.ClientSource) data.ClientSource { return &leakySource{ClientSource: s} }
	rc := runConfig{w: *w, seed: 1, seconds: 0.001, opts: simOptions{scale: smokeScale, workDir: t.TempDir(), wrapSource: leak}}
	rep := measure(rc, func(m mode) (*simResult, error) {
		return runSim(rc.w, rc.seed, m, rc.opts), nil
	}, testLog{t})
	if rep.Correct || rep.Attempted == 0 || rep.Failed != rep.Attempted {
		t.Fatalf("leaked lease: correct=%v attempted=%d failed=%d, want every update failed", rep.Correct, rep.Attempted, rep.Failed)
	}
}

func TestDivergentHistoriesFailCheck(t *testing.T) {
	w, err := workloadByName("fedbuff-lstm-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	rc := runConfig{w: *w, seed: 1, seconds: 0.001, trace: true, opts: simOptions{scale: smokeScale, workDir: t.TempDir()}}
	rep := measure(rc, func(m mode) (*simResult, error) {
		res := runSim(rc.w, rc.seed, m, rc.opts)
		if m == modeTraced && res.History != nil {
			// A wrapper that changed the run, say by dropping the
			// algorithm's transport, shows up as a different history.
			res.History.BytesUp++
		}
		return res, nil
	}, testLog{t})
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Fatalf("divergent histories: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, want %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer %+v, want %+v", doc.PerLayer, perLayer)
	}
}

func TestUnionNs(t *testing.T) {
	sp := func(a, b int64) span { return span{Start: a, End: b} }
	for _, c := range []struct {
		spans  []span
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]span{sp(1, 3), sp(2, 5), sp(7, 8)}, 0, 10, 5},
		{[]span{sp(0, 4), sp(6, 12)}, 2, 10, 6},
		{[]span{sp(3, 4), sp(0, 10)}, 0, 10, 10},
	} {
		if got := unionNs(c.spans, c.lo, c.hi); got != c.want {
			t.Errorf("unionNs(%v, %d, %d) = %d, want %d", c.spans, c.lo, c.hi, got, c.want)
		}
	}
}

// testLog routes the benchmark's progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
