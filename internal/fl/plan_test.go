package fl

import (
	"fmt"
	"reflect"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/models"
	"fedcross/internal/tensor"
)

// recordAlgo trains like wireAlgo but keeps a copy of every round's
// selected cohort, letting tests compare the engine's actual selection
// against the pure CohortPlan replay.
type recordAlgo struct {
	wireAlgo
	rounds [][]int
}

func (a *recordAlgo) Round(r int, selected []int) error {
	a.rounds = append(a.rounds, append([]int(nil), selected...))
	return a.wireAlgo.Round(r, selected)
}

// selectorAlgo is wireAlgo plus a Selector whose choice rotates with the
// round and consumes one RNG draw per call — if the planner ever drew a
// Selector cohort ahead of its round, both the rotation and the stream
// position would change and histories would diverge.
type selectorAlgo struct {
	wireAlgo
}

func (a *selectorAlgo) SelectClients(r int, rng *tensor.RNG, n, k int) []int {
	perm := rng.Perm(n)
	out := make([]int, k)
	for i := range out {
		out[i] = perm[(i+r)%n]
	}
	return out
}

// lazyStripedEnv builds the standard test environment over a lazy source
// with an explicit cache geometry, large enough that stripe counts up to
// 64 are honored rather than clamped away.
func lazyStripedEnv(seed int64, clients int, het data.Heterogeneity, capacity, stripes int) *Env {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 40, TestPerClass: 15,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.3, Seed: seed,
	}
	fed := data.BuildVisionLazyStriped(cfg, clients, het, seed+1, capacity, stripes)
	return &Env{Fed: fed, Model: models.MLP(12, 16, 4)}
}

// TestCohortPlanMatchesEngine: the pure replay returns exactly the cohort
// the engine selects, round by round — the contract that lets prefetch
// know the future without touching it.
func TestCohortPlanMatchesEngine(t *testing.T) {
	cfg := Config{Rounds: 5, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 5, Seed: 17}
	algo := &recordAlgo{}
	env := sourceEnv(33, 8, data.Heterogeneity{IID: true}, "lazy")
	if _, err := Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	n := env.NumClients()
	if len(algo.rounds) != cfg.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(algo.rounds), cfg.Rounds)
	}
	for r, got := range algo.rounds {
		want := CohortPlan(r, cfg.Seed, n, cfg.ClientsPerRound)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: engine selected %v, CohortPlan %v", r, got, want)
		}
	}
	// k > n clamps exactly like the engine; nonsense inputs return nil.
	if got := CohortPlan(0, cfg.Seed, 4, 9); len(got) != 4 {
		t.Fatalf("CohortPlan k>n returned %d ids, want clamp to 4", len(got))
	}
	if CohortPlan(-1, 1, 4, 2) != nil || CohortPlan(0, 1, 0, 2) != nil {
		t.Fatal("CohortPlan accepted nonsense inputs")
	}
}

// TestRunIdenticalAcrossStripesAndPrefetch is the acceptance gate of the
// striped-cache PR: fl.Run histories are byte-identical across stripe
// counts {1, 8, 64} × prefetch lookahead {0, 1, 2}, with every lease
// drained afterwards. Crash faults are on, so the test also covers
// prefetching pre-crash plans whose clients later crash.
func TestRunIdenticalAcrossStripesAndPrefetch(t *testing.T) {
	base := Config{Rounds: 4, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 19,
		Faults: FaultOptions{CrashRate: 0.2}}
	var ref *History
	for _, stripes := range []int{1, 8, 64} {
		for _, pre := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("stripes%d/prefetch%d", stripes, pre), func(t *testing.T) {
				cfg := base
				cfg.CacheStripes = stripes
				cfg.PrefetchRounds = pre
				env := lazyStripedEnv(35, 12, data.Heterogeneity{Beta: 0.5}, 64, 1)
				h, err := Run(&wireAlgo{}, env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := env.Fed.OutstandingLeases(); n != 0 {
					t.Fatalf("%d leases outstanding after run", n)
				}
				if stats, ok := env.Fed.SourceStats(); ok && stats.Stripes != stripes {
					t.Fatalf("source runs %d stripes, want %d applied cold", stats.Stripes, stripes)
				}
				if ref == nil {
					ref = h
					return
				}
				if !reflect.DeepEqual(ref.Metrics, h.Metrics) {
					t.Fatalf("history diverges at stripes=%d prefetch=%d:\n%v\nvs\n%v",
						stripes, pre, ref.Metrics, h.Metrics)
				}
			})
		}
	}
}

// TestRunAsyncIdenticalAcrossStripesAndPrefetch repeats the gate for the
// buffered-async engine, whose prefetch fires per dispatched client
// rather than per planned round.
func TestRunAsyncIdenticalAcrossStripesAndPrefetch(t *testing.T) {
	base := Config{Rounds: 4, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 23}
	opts := AsyncOptions{Buffer: 2}
	var ref *History
	for _, stripes := range []int{1, 8, 64} {
		for _, pre := range []int{0, 1} {
			cfg := base
			cfg.CacheStripes = stripes
			cfg.PrefetchRounds = pre
			env := lazyStripedEnv(37, 10, data.Heterogeneity{Beta: 0.5}, 64, 1)
			h, err := RunAsync(env, cfg, opts)
			if err != nil {
				t.Fatalf("stripes=%d prefetch=%d: %v", stripes, pre, err)
			}
			if n := env.Fed.OutstandingLeases(); n != 0 {
				t.Fatalf("stripes=%d prefetch=%d: %d leases outstanding", stripes, pre, n)
			}
			if ref == nil {
				ref = h
				continue
			}
			if !reflect.DeepEqual(ref.Metrics, h.Metrics) {
				t.Fatalf("async history diverges at stripes=%d prefetch=%d:\n%v\nvs\n%v",
					stripes, pre, ref.Metrics, h.Metrics)
			}
		}
	}
}

// TestSelectorDisablesLookahead: for algorithms that choose their own
// clients, the planner must refuse to plan ahead — histories with
// prefetch on and off are identical, and the source records zero
// prefetch-warmed hits because no lookahead was ever issued.
func TestSelectorDisablesLookahead(t *testing.T) {
	base := Config{Rounds: 4, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 29}
	var ref *History
	for _, pre := range []int{0, 2} {
		cfg := base
		cfg.PrefetchRounds = pre
		env := lazyStripedEnv(39, 10, data.Heterogeneity{IID: true}, 64, 8)
		h, err := Run(&selectorAlgo{}, env, cfg)
		if err != nil {
			t.Fatalf("prefetch=%d: %v", pre, err)
		}
		if stats, ok := env.Fed.SourceStats(); !ok {
			t.Fatal("lazy source lost its stats seam")
		} else if stats.PrefetchHits != 0 {
			t.Fatalf("prefetch=%d: %d prefetch hits with a Selector algorithm, want 0",
				pre, stats.PrefetchHits)
		}
		if ref == nil {
			ref = h
			continue
		}
		if !reflect.DeepEqual(ref.Metrics, h.Metrics) {
			t.Fatalf("Selector history changed with prefetch on:\n%v\nvs\n%v", ref.Metrics, h.Metrics)
		}
	}
}

// waitPrefetchAlgo trains like wireAlgo but rendezvouses with the lazy
// source's prefetch pool at the top of every round. Real runs never wait
// — warming is best-effort overlap — but the test must, because on a
// small box the foreground lease can win the synthesis race and the
// prefetch-hit counter would be a coin flip.
type waitPrefetchAlgo struct {
	wireAlgo
	src interface{ WaitPrefetch() }
}

func (a *waitPrefetchAlgo) Round(r int, selected []int) error {
	a.src.WaitPrefetch()
	return a.wireAlgo.Round(r, selected)
}

// TestPrefetchActuallyWarms: with lookahead on, later rounds lease out of
// the warmed cache — the source must record prefetch hits, or the
// overlap machinery silently did nothing.
func TestPrefetchActuallyWarms(t *testing.T) {
	cfg := Config{Rounds: 5, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 5, Seed: 31, PrefetchRounds: 2}
	env := lazyStripedEnv(41, 12, data.Heterogeneity{IID: true}, 64, 8)
	algo := &waitPrefetchAlgo{src: env.Fed.Source.(*data.Lazy)}
	if _, err := Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	stats, ok := env.Fed.SourceStats()
	if !ok {
		t.Fatal("lazy source lost its stats seam")
	}
	if stats.PrefetchHits == 0 {
		t.Fatalf("no prefetch hits over %d rounds of lookahead: %+v", cfg.Rounds, stats)
	}
	if stats.Outstanding != 0 {
		t.Fatalf("outstanding %d after run", stats.Outstanding)
	}
}
