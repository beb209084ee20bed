package main

import (
	"fmt"
	"runtime"

	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
	"fedcross/internal/tensor"
)

// ClaimSeed is the workload seed kept aside for checking performance
// claims: a change tuned against the seeds used while writing it must
// also hold on this one.
const ClaimSeed = 1009

// workload is one fixed-work simulation. Every workload leaves
// BatchFanout, PrefetchRounds, CacheStripes and DropoutRate at their
// defaults (0): those knobs must not move results, so the benchmark
// measures the configuration a user gets without setting them.
type workload struct {
	name    string
	profile experiments.Profile
	dataset string
	model   string
	het     data.Heterogeneity
	// algo names the synchronous method run by fl.Run; empty selects
	// the buffered-async engine fl.RunAsync.
	algo string
	// ckptEvery, when positive, writes a snapshot every ckptEvery rounds
	// (commits, for the async engine).
	ckptEvery int
	// chance is the accuracy of guessing; final_acc must exceed
	// chance+accMargin for the run to count as correct.
	chance float64
}

// accMargin is how far above chance final_acc must land. Every workload
// ends far above it at full length (see the sizing notes on each
// workload); the margin only rejects runs that did not learn at all.
const accMargin = 0.1

// workloads lists the benchmark's workloads in BENCHMARK.json order.
//
// Local epochs, batch size and momentum follow the paper profile (E=5,
// B=50, momentum 0.5) except where a workload notes otherwise. Learning
// rates are raised from the paper's 0.01 so each run ends on its
// accuracy plateau within its round budget: on the plateau final_acc
// varies ~3% across seeds, against ~7% mid-climb. Parallelism is the
// machine's CPU count and nothing else in the benchmark runs alongside a
// simulation.
var workloads = []workload{
	{
		// The paper's setting: FedCross (alpha=0.99, lowest similarity)
		// on vision10 + CNN, Dir(0.5), N=100 eager clients with about 50
		// samples each, K=10, identity wire. Local training is ~94% of
		// CPU and GEMM plus im2col/col2im most of that, so conv lowering
		// shows here, while shard leases are O(1) slice reads and the
		// wire is zero-copy. 150 rounds at lr 0.02 end at 0.89-0.95
		// accuracy in ~9 s on a 2-vCPU VM; the 1000-sample test set
		// keeps evaluation noise under a point of accuracy.
		name: "fedcross-cnn",
		profile: experiments.Profile{
			Name:                "fedcross-cnn",
			VisionTrainPerClass: 500, VisionTestPerClass: 100,
			NumClients: 100, ClientsPerRound: 10,
			Rounds: 150, LocalEpochs: 5, BatchSize: 50,
			LR: 0.02, Momentum: 0.5,
			EvalEvery: 10,
		},
		dataset: "vision10", model: "cnn",
		het:    data.Heterogeneity{Beta: 0.5},
		algo:   "fedcross",
		chance: 0.1,
	},
	{
		// FedAvg on vision10 + MLP over a lazy population of 10^5
		// clients (above experiments.LazyClientCutoff) with about one
		// sample each, K=100, E=1, int8 codec. It exercises what
		// fedcross-cnn bypasses: cold shard synthesis (almost every
		// lease misses the cache), int8 encode/decode in Transport.Up,
		// the 100-way upload reduce, a Perm(N) selection every round, a
		// second-scale set-up and a few hundred MiB peak. N=10^6 was not
		// chosen: with the same sample budget almost every cohort slot
		// lands on an empty shard and Perm(N) dominates the run. At lr
		// 0.01 the MLP stays near chance within 200 rounds on some
		// seeds; lr 0.03 ends at 0.91-0.94.
		name: "fedavg-100k-int8",
		profile: experiments.Profile{
			Name:                "fedavg-100k-int8",
			VisionTrainPerClass: 10000, VisionTestPerClass: 50,
			NumClients: 100000, ClientsPerRound: 100,
			Rounds: 200, LocalEpochs: 1, BatchSize: 50,
			LR: 0.03, Momentum: 0.5,
			EvalEvery: 10,
			Codec:     "int8",
		},
		dataset: "vision10", model: "mlp",
		het:    data.Heterogeneity{Beta: 0.5},
		algo:   "fedavg",
		chance: 0.1,
	},
	{
		// fl.RunAsync with FedBuff defaults (buffer 4, K=10 in flight)
		// on sent140 + SentLSTM, N=100 clients with 60 samples each,
		// identity wire, and a write-ahead snapshot every 10 commits:
		// the second round engine and the only workload that writes
		// state. Its kernels are many small GEMMs plus sigmoid/tanh,
		// unlike the CNN's few large ones. 300 commits at lr 0.05 end at
		// 0.88-0.92 accuracy in ~4 s. The identity wire keeps its
		// arithmetic unchanged if async uploads are later routed
		// through Transport.Up.
		name: "fedbuff-lstm-ckpt",
		profile: experiments.Profile{
			Name:                 "fedbuff-lstm-ckpt",
			TextSamplesPerClient: 60, TextTestSamples: 500,
			NumClients: 100, ClientsPerRound: 10,
			Rounds: 300, LocalEpochs: 5, BatchSize: 50,
			LR: 0.05, Momentum: 0.5,
			EvalEvery: 10,
		},
		dataset:   "sent140",
		ckptEvery: 10,
		chance:    0.5,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// scaled returns the workload with its round (commit) count multiplied
// by scale, keeping at least one evaluation interval. The smoke test
// runs every workload this way at a fraction of its length.
func (w workload) scaled(scale float64) workload {
	if scale <= 0 || scale == 1 {
		return w
	}
	r := int(float64(w.profile.Rounds) * scale)
	if r < w.profile.EvalEvery {
		r = w.profile.EvalEvery
	}
	w.profile.Rounds = r
	return w
}

// seeds derives the data seed (corpus synthesis and partition) and the
// run seed (fl.Config.Seed) from the workload seed, so one argument
// fixes every input.
func seeds(seed int64) (dataSeed, runSeed int64) {
	rng := tensor.NewRNG(seed)
	return rng.Int63(), rng.Int63()
}

// config is the run configuration for one simulation.
func (w workload) config(runSeed int64, ckptPath string) fl.Config {
	p := w.profile
	p.Parallelism = runtime.NumCPU()
	cfg := p.Config(runSeed)
	if w.ckptEvery > 0 {
		cfg.Checkpoint = fl.CheckpointOptions{Path: ckptPath, Every: w.ckptEvery}
	}
	return cfg
}

// evalPoints is how many metrics a full run must record: one every
// EvalEvery rounds plus the last round.
func (w workload) evalPoints() int {
	r, e := w.profile.Rounds, w.profile.EvalEvery
	n := r / e
	if r%e != 0 {
		n++
	}
	return n
}

// nominalUpdates is the update count charged as failed to a simulation
// that died before it could report its own.
func (w workload) nominalUpdates() int {
	return w.profile.ClientsPerRound * w.profile.Rounds
}
