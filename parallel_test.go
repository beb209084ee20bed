package fedcross

import (
	"reflect"
	"testing"
)

// invarianceProfile sizes the determinism runs: small enough that twelve
// full simulations finish in seconds, large enough that every algorithm
// takes real SGD steps on several clients per round.
func invarianceProfile() Profile {
	p := TinyProfile()
	p.Rounds = 3
	p.EvalEvery = 1
	p.NumClients = 8
	p.ClientsPerRound = 4
	p.VisionTrainPerClass = 16
	p.VisionTestPerClass = 6
	return p
}

// TestParallelismInvariance pins the worker pool's determinism contract:
// for every one of the six algorithms, the same seed produces a
// byte-identical History whether the round engine runs on one worker or
// eight. Per-client RNG streams are split before dispatch, so scheduling
// must never leak into results.
func TestParallelismInvariance(t *testing.T) {
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			histories := make([]*History, 2)
			for i, workers := range []int{1, 8} {
				prof := invarianceProfile()
				prof.Parallelism = workers
				env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
				if err != nil {
					t.Fatal(err)
				}
				algo, err := NewAlgorithm(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := prof.Config(1)
				cfg.Faults.CrashRate = 0.2 // exercise the lost-client (-1) paths too
				hist, err := Run(algo, env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				histories[i] = hist
			}
			if !reflect.DeepEqual(histories[0], histories[1]) {
				t.Fatalf("%s: history differs between Parallelism=1 and Parallelism=8:\nserial:   %+v\nparallel: %+v",
					name, histories[0], histories[1])
			}
		})
	}
}

// TestTransportParallelismInvariance extends the determinism contract to
// the simulated wire: with a lossy codec, every algorithm must still
// produce a byte-identical History at Parallelism=1 and 8. Two wires are
// checked: a jittered network with a round deadline, and a faulty link
// (drops, truncation, corruption, duplicates, straggles, with retries)
// carrying colluding attackers' uploads. Straggler selection, fault and
// retry decisions, corruption and byte accounting are planned serially
// in slot order; only each upload's codec round-trip runs on the worker
// pool, and it is a pure function of its own payload.
func TestTransportParallelismInvariance(t *testing.T) {
	wires := []struct {
		name  string
		apply func(cfg *Config)
	}{
		{"int8/lte/deadline", func(cfg *Config) {
			cfg.Transport = TransportOptions{Codec: "int8", Network: "lte", DeadlineSec: 2}
		}},
		{"int8/faults/collude", func(cfg *Config) {
			cfg.Transport = TransportOptions{Codec: "int8", Network: "lte", DeadlineSec: 0.25,
				Retries: 1, RetryBackoffSec: 0.05}
			cfg.Faults.DropRate = 0.3
			cfg.Faults.TruncateRate = 0.2
			cfg.Faults.CorruptRate = 0.2
			cfg.Faults.DuplicateRate = 0.2
			cfg.Faults.StraggleRate = 0.3
			cfg.Adversary = AdversaryOptions{Attack: AttackCollude, Frac: 0.25}
		}},
	}
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			for _, wire := range wires {
				histories := make([]*History, 2)
				for i, workers := range []int{1, 8} {
					prof := invarianceProfile()
					prof.Parallelism = workers
					env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
					if err != nil {
						t.Fatal(err)
					}
					algo, err := NewAlgorithm(name)
					if err != nil {
						t.Fatal(err)
					}
					cfg := prof.Config(1)
					cfg.Faults.CrashRate = 0.2
					wire.apply(&cfg)
					hist, err := Run(algo, env, cfg)
					if err != nil {
						t.Fatal(err)
					}
					histories[i] = hist
				}
				if !reflect.DeepEqual(histories[0], histories[1]) {
					t.Fatalf("%s over %s: lossy-wire history differs between Parallelism=1 and 8:\nserial:   %+v\nparallel: %+v",
						name, wire.name, histories[0], histories[1])
				}
				if histories[0].TotalBytes() == 0 {
					t.Fatalf("%s over %s: lossy wire moved zero bytes", name, wire.name)
				}
			}
		})
	}
}

// TestIdentityWireMatchesDefault pins the reference-wire contract: a run
// with explicit codec=identity + net=none is byte-identical to a run with
// the zero-value Transport options (the accounting-only default).
func TestIdentityWireMatchesDefault(t *testing.T) {
	for _, name := range AlgorithmNames() {
		histories := make([]*History, 2)
		for i, explicit := range []bool{false, true} {
			prof := invarianceProfile()
			env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
			if err != nil {
				t.Fatal(err)
			}
			algo, err := NewAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := prof.Config(1)
			if explicit {
				cfg.Transport = TransportOptions{Codec: "identity", Network: "none"}
			}
			hist, err := Run(algo, env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			histories[i] = hist
		}
		if !reflect.DeepEqual(histories[0], histories[1]) {
			t.Fatalf("%s: explicit identity wire differs from the default:\ndefault:  %+v\nexplicit: %+v",
				name, histories[0], histories[1])
		}
		if histories[0].TotalBytes() == 0 {
			t.Fatalf("%s: identity wire reported zero bytes", name)
		}
	}
}

// TestEvaluatePerClientParallelism pins the fairness report's determinism:
// the per-client sweep runs on the pool but must reduce in client order.
func TestEvaluatePerClientParallelism(t *testing.T) {
	prof := invarianceProfile()
	env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := NewFedCross(DefaultFedCrossOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(algo, env, prof.Config(1)); err != nil {
		t.Fatal(err)
	}
	a, err := EvaluatePerClient(env, algo.Global(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluatePerClient(env, algo.Global(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("EvaluatePerClient is not deterministic:\n%+v\n%+v", a, b)
	}
}
