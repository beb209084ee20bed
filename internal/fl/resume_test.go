package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fedcross/internal/data"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// ckptWireAlgo is wireAlgo plus RoundCheckpointer: the smallest
// in-package algorithm that can ride the engine's kill/resume cycle.
type ckptWireAlgo struct{ wireAlgo }

func (s *ckptWireAlgo) SaveState(w io.Writer) error {
	if err := nn.WriteVector(w, s.global); err != nil {
		return err
	}
	return nn.WriteRNG(w, s.rng)
}

func (s *ckptWireAlgo) LoadState(r io.Reader) error {
	global, err := nn.ReadVector(r)
	if err != nil {
		return err
	}
	// Init draws one value per parameter; each round splits one stream
	// per activated client.
	rng, err := nn.ReadRNG(r, tensor.DrawCap(uint64(len(s.global)+s.cfg.Rounds*s.cfg.ClientsPerRound)))
	if err != nil {
		return err
	}
	s.global, s.rng = global, rng
	return nil
}

func TestCheckpointOptionsValidate(t *testing.T) {
	for _, bad := range []CheckpointOptions{
		{Path: "x", Every: -1},
		{Path: "x", StopAfterRound: -1},
		{Every: 2},
		{Resume: true},
		{StopAfterRound: 3},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should not validate", bad)
		}
	}
	if err := (CheckpointOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (CheckpointOptions{}).Active() {
		t.Fatal("zero options must be inactive")
	}
}

// resumeCfg is a deliberately hostile setting for the snapshot: faults,
// retries, a quorum, an adversary and a lossy wire all carry live state
// across the kill boundary.
func resumeCfg(par int) Config {
	return Config{Rounds: 6, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: 11, Parallelism: par,
		Faults:     FaultOptions{CrashRate: 0.2, DropRate: 0.2, DuplicateRate: 0.2, StallRate: 0.2},
		MinUploads: 2,
		Transport:  TransportOptions{Codec: "fp16", Network: "wifi", Retries: 1, RetryBackoffSec: 0.1},
		Adversary:  AdversaryOptions{Attack: AttackSignFlip, Frac: 0.25},
	}
}

// TestRunKillResumeBitIdentity: a run killed at any round boundary and
// resumed from its snapshot finishes with a final history byte-identical
// to the uninterrupted run — at serial and fanned-out parallelism, under
// faults and attack.
func TestRunKillResumeBitIdentity(t *testing.T) {
	dir := t.TempDir()
	for _, par := range []int{1, 8} {
		full, err := Run(&ckptWireAlgo{}, testEnv(61, 8), resumeCfg(par))
		if err != nil {
			t.Fatal(err)
		}
		for _, stop := range []int{1, 3, 5} {
			t.Run(fmt.Sprintf("par%d/stop%d", par, stop), func(t *testing.T) {
				path := filepath.Join(dir, fmt.Sprintf("p%d-s%d.ckpt", par, stop))
				killed := resumeCfg(par)
				killed.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: stop}
				partial, err := Run(&ckptWireAlgo{}, testEnv(61, 8), killed)
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("want ErrStopped, got %v", err)
				}
				if got := partial.Final().Round; got > stop {
					t.Fatalf("partial history ran past the kill: round %d > %d", got, stop)
				}
				resumed := resumeCfg(par)
				resumed.Checkpoint = CheckpointOptions{Path: path, Resume: true}
				h, err := Run(&ckptWireAlgo{}, testEnv(61, 8), resumed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full, h) {
					t.Fatalf("resumed history diverged:\nfull    %+v\nresumed %+v", full, h)
				}
			})
		}
	}
}

// TestRunCheckpointEveryResume: periodic snapshots (no explicit kill) are
// also valid resume points — resuming from whatever Every left on disk
// reproduces the uninterrupted tail.
func TestRunCheckpointEveryResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := resumeCfg(0)
	cfg.Rounds = 5
	full, err := Run(&ckptWireAlgo{}, testEnv(62, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	every := cfg
	every.Checkpoint = CheckpointOptions{Path: path, Every: 2}
	if _, err := Run(&ckptWireAlgo{}, testEnv(62, 8), every); err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	h, err := Run(&ckptWireAlgo{}, testEnv(62, 8), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, h) {
		t.Fatal("resume from the periodic snapshot diverged from the uninterrupted run")
	}
}

// TestRunResumeRejectsHostileInput: missing files, truncated snapshots,
// garbage bytes and mismatched run parameters all fail with a clear
// error — never a panic, never a silent wrong resume. An algorithm
// without checkpoint support is rejected up front.
func TestRunResumeRejectsHostileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cfg := resumeCfg(0)
	cfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: 2}
	if _, err := Run(&ckptWireAlgo{}, testEnv(63, 8), cfg); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resume := func(p string, cfg Config) error {
		cfg.Checkpoint = CheckpointOptions{Path: p, Resume: true}
		_, err := Run(&ckptWireAlgo{}, testEnv(63, 8), cfg)
		return err
	}
	if err := resume(filepath.Join(dir, "missing.ckpt"), resumeCfg(0)); err == nil {
		t.Fatal("resume from a missing file must fail")
	}
	for _, mutate := range []struct {
		name  string
		bytes []byte
	}{
		{"truncated", raw[:len(raw)/2]},
		{"empty", nil},
		{"garbage", []byte("not a checkpoint at all")},
	} {
		hostile := filepath.Join(dir, mutate.name+".ckpt")
		if err := os.WriteFile(hostile, mutate.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resume(hostile, resumeCfg(0)); err == nil {
			t.Fatalf("resume from %s snapshot must fail", mutate.name)
		}
	}
	wrongSeed := resumeCfg(0)
	wrongSeed.Seed = 999
	if err := resume(path, wrongSeed); err == nil {
		t.Fatal("resume under a different seed must fail")
	}
	plain := resumeCfg(0)
	plain.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	if _, err := Run(&wireAlgo{}, testEnv(63, 8), plain); err == nil {
		t.Fatal("checkpointing without RoundCheckpointer must fail")
	}
}

func asyncResumeCfg() (Config, AsyncOptions) {
	cfg := Config{Rounds: 6, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: 13,
		Faults:     FaultOptions{CrashRate: 0.2, DropRate: 0.2, DuplicateRate: 0.2, StallRate: 0.2},
		MinUploads: 1,
		Adversary:  AdversaryOptions{Attack: AttackSignFlip, Frac: 0.25},
	}
	return cfg, AsyncOptions{Buffer: 2, InFlight: 4, Commits: 8}
}

// TestAsyncKillResumeBitIdentity: the buffered-async engine holds the
// same contract — kill at any commit boundary, resume, and the final
// history is byte-identical, in-flight jobs and all.
func TestAsyncKillResumeBitIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg, opts := asyncResumeCfg()
	full, err := RunAsync(testEnv(64, 8), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("stop%d", stop), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("s%d.ckpt", stop))
			killedCfg, opts := asyncResumeCfg()
			killedCfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: stop}
			partial, err := RunAsync(testEnv(64, 8), killedCfg, opts)
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("want ErrStopped, got %v", err)
			}
			if got := partial.Final().Round; got > stop {
				t.Fatalf("partial history ran past the kill: commit %d > %d", got, stop)
			}
			resumedCfg, opts := asyncResumeCfg()
			resumedCfg.Checkpoint = CheckpointOptions{Path: path, Resume: true}
			h, err := RunAsync(testEnv(64, 8), resumedCfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, h) {
				t.Fatalf("async resumed history diverged:\nfull    %+v\nresumed %+v", full, h)
			}
		})
	}
}

// TestAsyncResumeRejectsHostileInput mirrors the sync hardening for the
// async snapshot format.
func TestAsyncResumeRejectsHostileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "async.ckpt")
	cfg, opts := asyncResumeCfg()
	cfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: 3}
	if _, err := RunAsync(testEnv(65, 8), cfg, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(dir, "hostile.ckpt")
	if err := os.WriteFile(hostile, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	badCfg, opts := asyncResumeCfg()
	badCfg.Checkpoint = CheckpointOptions{Path: hostile, Resume: true}
	if _, err := RunAsync(testEnv(65, 8), badCfg, opts); err == nil {
		t.Fatal("async resume from a truncated snapshot must fail")
	}
	wrongSeed, opts2 := asyncResumeCfg()
	wrongSeed.Seed = 999
	wrongSeed.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	if _, err := RunAsync(testEnv(65, 8), wrongSeed, opts2); err == nil {
		t.Fatal("async resume under a different seed must fail")
	}
}

// TestFaultedRoundsDrainAllLeases: fault-heavy runs (including killed
// ones) must release every replica and shard lease — the abort paths the
// faults add cannot leak. The env gets a private architecture so no other
// test's replicas show up, and a lazy source so shard leases are counted.
func TestFaultedRoundsDrainAllLeases(t *testing.T) {
	mkEnv := func() *Env {
		env := sourceEnv(66, 8, data.Heterogeneity{IID: true}, "lazy")
		env.Model = models.MLP(12, 19, 4) // unique dims → private replica pool
		return env
	}
	pool := models.Replicas(models.MLP(12, 19, 4))
	leases := func(env *Env) int {
		type outstander interface{ Outstanding() int }
		return env.Fed.Source.(outstander).Outstanding()
	}

	cfg := resumeCfg(4)
	env := mkEnv()
	if _, err := Run(&ckptWireAlgo{}, env, cfg); err != nil {
		t.Fatal(err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("faulted sync run leaked %d replica leases", n)
	}
	if n := leases(env); n != 0 {
		t.Fatalf("faulted sync run leaked %d shard leases", n)
	}

	killed := resumeCfg(4)
	killed.Checkpoint = CheckpointOptions{Path: filepath.Join(t.TempDir(), "k.ckpt"), StopAfterRound: 2}
	env = mkEnv()
	if _, err := Run(&ckptWireAlgo{}, env, killed); !errors.Is(err, ErrStopped) {
		t.Fatal("want ErrStopped")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("killed sync run leaked %d replica leases", n)
	}
	if n := leases(env); n != 0 {
		t.Fatalf("killed sync run leaked %d shard leases", n)
	}

	asyncCfg, opts := asyncResumeCfg()
	env = mkEnv()
	if _, err := RunAsync(env, asyncCfg, opts); err != nil {
		t.Fatal(err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("faulted async run leaked %d replica leases", n)
	}
	if n := leases(env); n != 0 {
		t.Fatalf("faulted async run leaked %d shard leases", n)
	}

	asyncKilled, opts := asyncResumeCfg()
	asyncKilled.Checkpoint = CheckpointOptions{Path: filepath.Join(t.TempDir(), "ak.ckpt"), StopAfterRound: 3}
	env = mkEnv()
	if _, err := RunAsync(env, asyncKilled, opts); !errors.Is(err, ErrStopped) {
		t.Fatal("want ErrStopped")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("killed async run leaked %d replica leases", n)
	}
	if n := leases(env); n != 0 {
		t.Fatalf("killed async run leaked %d shard leases", n)
	}
}

// The fixture runs whose snapshots seed FuzzCheckpointLoad and the
// hostile-snapshot tests: a sync run on a lazy source with prefetch
// lookahead (so the snapshot carries planned cohorts) and an async run,
// both on a three-unit MLP so the snapshots stay small.
const fixtureClients = 8

func fixtureEnv(seed int64) *Env {
	env := sourceEnv(seed, fixtureClients, data.Heterogeneity{IID: true}, "lazy")
	env.Model = models.MLP(12, 3, 4)
	return env
}

func fixtureSyncCfg(path string) Config {
	cfg := resumeCfg(1)
	cfg.PrefetchRounds = 2
	cfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: 2}
	return cfg
}

func fixtureAsyncCfg(path string) (Config, AsyncOptions) {
	cfg, opts := asyncResumeCfg()
	cfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: 3}
	return cfg, opts
}

// fixtureSnapshots runs both fixtures to their stop point and returns
// the snapshot files' bytes.
func fixtureSnapshots(tb testing.TB) (syncSnap, asyncSnap []byte) {
	tb.Helper()
	dir := tb.TempDir()
	syncPath, asyncPath := filepath.Join(dir, "sync.ckpt"), filepath.Join(dir, "async.ckpt")
	if _, err := Run(&ckptWireAlgo{}, fixtureEnv(71), fixtureSyncCfg(syncPath)); !errors.Is(err, ErrStopped) {
		tb.Fatalf("sync fixture: want ErrStopped, got %v", err)
	}
	cfg, opts := fixtureAsyncCfg(asyncPath)
	if _, err := RunAsync(fixtureEnv(72), cfg, opts); !errors.Is(err, ErrStopped) {
		tb.Fatalf("async fixture: want ErrStopped, got %v", err)
	}
	var err error
	if syncSnap, err = os.ReadFile(syncPath); err != nil {
		tb.Fatal(err)
	}
	if asyncSnap, err = os.ReadFile(asyncPath); err != nil {
		tb.Fatal(err)
	}
	return syncSnap, asyncSnap
}

// fixtureShapes returns what each fixture's snapshot must match: seed
// and shape for the frame, and the engine-section parameters.
func fixtureShapes() (syncSeed int64, syncShape []int64, asyncSeed int64, asyncShape []int64, opts AsyncOptions, dim int) {
	scfg := fixtureSyncCfg("")
	acfg, opts := fixtureAsyncCfg("")
	opts = opts.resolve(acfg)
	dim = len(nn.FlattenParams(fixtureEnv(72).Model.New(tensor.NewRNG(1)).Params()))
	return scfg.Seed, []int64{int64(scfg.Rounds), int64(scfg.ClientsPerRound), fixtureClients},
		acfg.Seed, []int64{int64(opts.Commits), int64(opts.Buffer), int64(opts.InFlight), fixtureClients, int64(dim)},
		opts, dim
}

// rewriteSnapshot decodes a snapshot, lets mutate edit its engine
// section, and re-encodes it with a valid checksum: the result passes
// every frame check, so only the section's own validation stands
// between it and the resumed engine.
func rewriteSnapshot(t *testing.T, raw []byte, async bool, mutate func(run *runState, as *asyncState)) []byte {
	t.Helper()
	syncSeed, syncShape, asyncSeed, asyncShape, opts, dim := fixtureShapes()
	tag, seed, shape := uint64(tagRun), syncSeed, syncShape
	if async {
		tag, seed, shape = tagAsync, asyncSeed, asyncShape
	}
	f, err := decodeFrame(raw, tag, seed, shape)
	if err != nil {
		t.Fatal(err)
	}
	var section func(*enc) error
	if async {
		st, err := readAsyncState(f.body, opts, fixtureClients, dim)
		if err != nil {
			t.Fatal(err)
		}
		mutate(nil, st)
		section = func(e *enc) error { st.write(e); return nil }
	} else {
		scfg := fixtureSyncCfg("")
		st, err := readRunState(f.body, (&ckptWireAlgo{}).Name(), scfg.Rounds, fixtureClients, scfg.ClientsPerRound)
		if err != nil {
			t.Fatal(err)
		}
		mutate(st, nil)
		section = func(e *enc) error { st.write(e); return nil }
	}
	out, err := encodeFrame(nil, tag, seed, shape, f.cum, f.metrics, section)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// resumeFixture resumes the given fixture engine from snapshot bytes.
func resumeFixture(t *testing.T, snap []byte, async bool) (*History, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if async {
		cfg, opts := fixtureAsyncCfg(path)
		cfg.Checkpoint = CheckpointOptions{Path: path, Resume: true}
		return RunAsync(fixtureEnv(72), cfg, opts)
	}
	cfg := fixtureSyncCfg(path)
	cfg.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	return Run(&ckptWireAlgo{}, fixtureEnv(71), cfg)
}

// TestFixtureSnapshotsResume: both fixture snapshots resume into the
// uninterrupted history — the sync one with planned lookahead cohorts
// in flight — so the hostile variants below fail for their one edit and
// nothing else.
func TestFixtureSnapshotsResume(t *testing.T) {
	syncSnap, asyncSnap := fixtureSnapshots(t)
	for _, async := range []bool{false, true} {
		var full *History
		var err error
		if async {
			cfg, opts := fixtureAsyncCfg("")
			cfg.Checkpoint = CheckpointOptions{}
			full, err = RunAsync(fixtureEnv(72), cfg, opts)
		} else {
			cfg := fixtureSyncCfg("")
			cfg.Checkpoint = CheckpointOptions{}
			full, err = Run(&ckptWireAlgo{}, fixtureEnv(71), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		snap := syncSnap
		if async {
			snap = asyncSnap
		}
		resumed, err := resumeFixture(t, snap, async)
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if !reflect.DeepEqual(full, resumed) {
			t.Fatalf("async=%v: resumed history diverged:\nfull    %+v\nresumed %+v", async, full, resumed)
		}
	}
}

// TestResumeRejectsHostileSections: snapshots that pass every frame
// check (magic, version, checksum, engine, seed, shape) but carry an
// impossible engine state fail with an error instead of panicking in
// the resumed loop — a planned cohort naming a client past n (it used
// to index the shard table out of range), a cohort for a round outside
// the planned window or of the wrong size, and an async available pool
// that is empty (the post-resume dispatch used to call Intn(0)),
// unsorted, or overlapping the in-flight clients.
func TestResumeRejectsHostileSections(t *testing.T) {
	syncSnap, asyncSnap := fixtureSnapshots(t)
	anyCohort := func(st *runState) int {
		for r := range st.drawn {
			return r
		}
		t.Fatal("sync fixture snapshot carries no planned cohort")
		return 0
	}
	for _, tc := range []struct {
		name   string
		async  bool
		mutate func(*runState, *asyncState)
	}{
		{"cohort id past n", false, func(st *runState, _ *asyncState) { st.drawn[anyCohort(st)][0] = 1 << 40 }},
		{"cohort id below -1", false, func(st *runState, _ *asyncState) { st.drawn[anyCohort(st)][1] = -2 }},
		{"cohort round before next", false, func(st *runState, _ *asyncState) {
			r := anyCohort(st)
			st.drawn[st.nextRound-1] = st.drawn[r]
			delete(st.drawn, r)
		}},
		{"short cohort", false, func(st *runState, _ *asyncState) { r := anyCohort(st); st.drawn[r] = st.drawn[r][:1] }},
		{"planner behind next round", false, func(st *runState, _ *asyncState) { st.plannerNext = st.nextRound - 1; st.drawn = nil }},
		{"empty available pool", true, func(_ *runState, st *asyncState) { st.available = nil }},
		{"unsorted available pool", true, func(_ *runState, st *asyncState) {
			st.available[0], st.available[1] = st.available[1], st.available[0]
		}},
		{"available client in flight", true, func(_ *runState, st *asyncState) { insertSorted(&st.available, st.jobs[0].client) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := syncSnap
			if tc.async {
				raw = asyncSnap
			}
			_, err := resumeFixture(t, rewriteSnapshot(t, raw, tc.async, tc.mutate), tc.async)
			if err == nil {
				t.Fatal("hostile snapshot resumed")
			}
			t.Log(err)
		})
	}
}

// TestResumeRejectsHugeStreamPosition: a snapshot with a valid checksum
// whose stream position is 2^40 — every engine stream in turn, and the
// algorithm's own stream inside its state blob — must fail the resume
// in well under a second instead of replaying 2^40 draws.
func TestResumeRejectsHugeStreamPosition(t *testing.T) {
	syncSnap, asyncSnap := fixtureSnapshots(t)
	const huge = 1 << 40
	for _, tc := range []struct {
		name   string
		async  bool
		mutate func(*runState, *asyncState)
	}{
		{"sync selection", false, func(st *runState, _ *asyncState) { st.sel.Pos = huge }},
		{"sync network", false, func(st *runState, _ *asyncState) { st.net.Pos = huge }},
		{"algorithm stream", false, func(st *runState, _ *asyncState) {
			// The blob ends with WriteRNG's (seed, position) words.
			binary.LittleEndian.PutUint64(st.algoState[len(st.algoState)-8:], huge)
		}},
		{"async selection", true, func(_ *runState, st *asyncState) { st.sel.Pos = huge }},
		{"async time", true, func(_ *runState, st *asyncState) { st.time.Pos = huge }},
		{"async job", true, func(_ *runState, st *asyncState) { st.job.Pos = huge }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := syncSnap
			if tc.async {
				raw = asyncSnap
			}
			snap := rewriteSnapshot(t, raw, tc.async, tc.mutate)
			start := time.Now()
			_, err := resumeFixture(t, snap, tc.async)
			if err == nil {
				t.Fatal("snapshot with a 2^40 stream position resumed")
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("rejection took %v", d)
			}
			t.Log(err)
		})
	}
}

// TestResumeRejectsBitFlip: one flipped byte inside the algorithm-state
// blob leaves a well-formed snapshot that would resume into a different
// history; the CRC32 trailer must catch it.
func TestResumeRejectsBitFlip(t *testing.T) {
	syncSnap, _ := fixtureSnapshots(t)
	syncSeed, syncShape, _, _, _, _ := fixtureShapes()
	f, err := decodeFrame(syncSnap, tagRun, syncSeed, syncShape)
	if err != nil {
		t.Fatal(err)
	}
	scfg := fixtureSyncCfg("")
	st, err := readRunState(f.body, (&ckptWireAlgo{}).Name(), scfg.Rounds, fixtureClients, scfg.ClientsPerRound)
	if err != nil {
		t.Fatal(err)
	}
	// The blob is the section's last field, just before the 4-byte CRC.
	flipped := slices.Clone(syncSnap)
	flipped[len(flipped)-4-len(st.algoState)/2] ^= 0x10
	_, err = resumeFixture(t, flipped, false)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want a checksum error", err)
	}
}

// TestResumeRejectsOtherEngine: a sync snapshot fed to RunAsync, and an
// async one fed to Run, fail on the engine tag.
func TestResumeRejectsOtherEngine(t *testing.T) {
	syncSnap, asyncSnap := fixtureSnapshots(t)
	for _, tc := range []struct {
		name  string
		snap  []byte
		async bool
	}{{"sync into RunAsync", syncSnap, true}, {"async into Run", asyncSnap, false}} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := resumeFixture(t, tc.snap, tc.async)
			if err == nil || !strings.Contains(err.Error(), "engine tag") {
				t.Fatalf("err = %v, want an engine tag error", err)
			}
		})
	}
}

// FuzzCheckpointLoad drives the one snapshot reader, for both engine
// tags, with a valid checksum recomputed over the fuzzed body so the
// fuzzer reaches the parser behind it. Every input must end in an error
// or in a snapshot that satisfies the section invariants the engines
// rely on — never a panic, never an allocation beyond the bytes present
// or the caps, and no stream whose replay exceeds its cap.
func FuzzCheckpointLoad(f *testing.F) {
	syncSnap, asyncSnap := fixtureSnapshots(f)
	f.Add(false, syncSnap[:len(syncSnap)-4])
	f.Add(true, asyncSnap[:len(asyncSnap)-4])
	syncSeed, syncShape, asyncSeed, asyncShape, opts, dim := fixtureShapes()
	scfg := fixtureSyncCfg("")
	k := min(scfg.ClientsPerRound, fixtureClients)
	f.Fuzz(func(t *testing.T, async bool, body []byte) {
		data := binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
		if async {
			fr, err := decodeFrame(data, tagAsync, asyncSeed, asyncShape)
			if err != nil {
				return
			}
			st, err := readAsyncState(fr.body, opts, fixtureClients, dim)
			if err != nil {
				return
			}
			if len(st.global) != dim || len(st.jobs) != opts.InFlight-1 {
				t.Fatalf("accepted global %d / %d jobs", len(st.global), len(st.jobs))
			}
			if st.nextCommit < opts.Commits && len(st.available) == 0 {
				t.Fatal("accepted an empty available pool with commits left")
			}
			for i, c := range st.available {
				if c < 0 || c >= fixtureClients || (i > 0 && c <= st.available[i-1]) {
					t.Fatalf("accepted available pool %v", st.available)
				}
			}
			for _, j := range st.jobs {
				if j.client < 0 || j.client >= fixtureClients || slices.Contains(st.available, j.client) ||
					len(j.fetch) != dim || (j.trained != nil && len(j.trained) != dim) {
					t.Fatalf("accepted job %+v", j)
				}
			}
			// Restoring the streams as RunAsync does replays at most their
			// caps: a position past one fails before any replay.
			selCap, timeCap, jobCap := st.streamCaps(opts)
			restoreWithin(t, st.sel, selCap)
			restoreWithin(t, st.time, timeCap)
			restoreWithin(t, st.job, jobCap)
			return
		}
		fr, err := decodeFrame(data, tagRun, syncSeed, syncShape)
		if err != nil {
			return
		}
		st, err := readRunState(fr.body, (&ckptWireAlgo{}).Name(), scfg.Rounds, fixtureClients, k)
		if err != nil {
			return
		}
		if st.nextRound < 0 || st.nextRound > st.plannerNext || st.plannerNext > scfg.Rounds ||
			len(st.drawn) != st.plannerNext-st.nextRound {
			t.Fatalf("accepted rounds next %d planned %d with %d cohorts", st.nextRound, st.plannerNext, len(st.drawn))
		}
		for r, ids := range st.drawn {
			if r < st.nextRound || r >= st.plannerNext || len(ids) != k {
				t.Fatalf("accepted cohort %d: %v", r, ids)
			}
			for _, id := range ids {
				if id < -1 || id >= fixtureClients {
					t.Fatalf("accepted cohort %d: %v", r, ids)
				}
			}
		}
		selCap, netCap := st.streamCaps(fixtureClients, k)
		restoreWithin(t, st.sel, selCap)
		restoreWithin(t, st.net, netCap)
	})
}

// restoreWithin restores st under cap as a resume does and checks the
// outcome: a generator at st.Pos when st.Pos <= cap, an error otherwise.
func restoreWithin(t *testing.T, st tensor.RNGState, cap uint64) {
	t.Helper()
	g, err := tensor.RestoreRNG(st, cap)
	switch {
	case st.Pos > cap && err == nil:
		t.Fatalf("restored position %d past cap %d", st.Pos, cap)
	case st.Pos <= cap && (err != nil || g.State() != st):
		t.Fatalf("restore of %+v under cap %d: %v", st, cap, err)
	}
}
