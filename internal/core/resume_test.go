package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// resumeRunCfg layers faults, a quorum and a sign-flip adversary on the
// integration config so the snapshot has to carry the full middleware
// list, selection RNG and transport counters across the kill.
func resumeRunCfg(par int) fl.Config {
	cfg := runCfg(6)
	cfg.EvalEvery = 1
	cfg.Parallelism = par
	cfg.Faults = fl.FaultOptions{CrashRate: 0.2, DropRate: 0.2, StallRate: 0.2}
	cfg.MinUploads = 2
	cfg.Transport = fl.TransportOptions{Codec: "fp16", Retries: 1, RetryBackoffSec: 0.1}
	cfg.Adversary = fl.AdversaryOptions{Attack: fl.AttackSignFlip, Frac: 0.25}
	return cfg
}

// TestFedCrossKillResumeBitIdentity: FedCross killed at a round boundary
// and resumed from its write-ahead snapshot reproduces the uninterrupted
// history byte-for-byte, including the per-model RNG and spare buffers.
func TestFedCrossKillResumeBitIdentity(t *testing.T) {
	dir := t.TempDir()
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			full, err := fl.Run(MustNew(DefaultOptions()), integrationEnv(1, 8, data.Heterogeneity{Beta: 0.5}), resumeRunCfg(par))
			if err != nil {
				t.Fatal(err)
			}
			for _, stop := range []int{1, 3, 5} {
				path := filepath.Join(dir, fmt.Sprintf("fc-%d-%d.ckpt", par, stop))
				killed := resumeRunCfg(par)
				killed.Checkpoint = fl.CheckpointOptions{Path: path, StopAfterRound: stop}
				if _, err := fl.Run(MustNew(DefaultOptions()), integrationEnv(1, 8, data.Heterogeneity{Beta: 0.5}), killed); !errors.Is(err, fl.ErrStopped) {
					t.Fatalf("stop %d: want ErrStopped, got %v", stop, err)
				}
				resumed := resumeRunCfg(par)
				resumed.Checkpoint = fl.CheckpointOptions{Path: path, Resume: true}
				h, err := fl.Run(MustNew(DefaultOptions()), integrationEnv(1, 8, data.Heterogeneity{Beta: 0.5}), resumed)
				if err != nil {
					t.Fatalf("stop %d: %v", stop, err)
				}
				if !reflect.DeepEqual(full, h) {
					t.Fatalf("stop %d: resumed history diverged", stop)
				}
			}
		})
	}
}

// TestFedCrossQuorumDegradedRound: below-quorum rounds leave the
// middleware list untouched and the run never hangs or leaks.
func TestFedCrossQuorumDegradedRound(t *testing.T) {
	cfg := runCfg(5)
	cfg.EvalEvery = 1
	cfg.Faults = fl.FaultOptions{CrashRate: 0.9}
	cfg.MinUploads = 4
	hist, err := fl.Run(MustNew(DefaultOptions()), integrationEnv(2, 8, data.Heterogeneity{Beta: 0.5}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Degraded == 0 {
		t.Fatal("90% crash rate against a quorum of 4 must degrade at least one round")
	}
	for i := 1; i < len(hist.Metrics); i++ {
		prev, cur := hist.Metrics[i-1], hist.Metrics[i]
		if cur.Cum.Degraded > prev.Cum.Degraded && cur.TestAcc != prev.TestAcc {
			t.Fatalf("round %d degraded but accuracy moved %v -> %v", cur.Round, prev.TestAcc, cur.TestAcc)
		}
	}
}
