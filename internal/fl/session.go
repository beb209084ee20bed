package fl

import (
	"fmt"
	"os"

	"fedcross/internal/data"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// session is the run setup and bookkeeping both engines share: the RNG
// streams, the adversary, fault and churn plans, the shadow environment,
// the prefetcher, the counters, the eval and checkpoint cadence, and the
// snapshot frame. Run and RunAsync each build one first and keep only
// their own scheduling loop.
type session struct {
	cfg  Config
	who  string // error prefix: "fl: Run" or "fl: RunAsync"
	env  *Env   // the adversary's shadow view
	n    int    // shadow population (virtual sybils included)
	hist *History

	// The seven streams, split from cfg.Seed in a frozen order. The
	// master stream is never drawn again, so every stream added after
	// the first four (adv, fault, churn) left older histories
	// bit-identical. slot2 is async's time stream; the sync engine
	// leaves it unused but still splits it, so the streams after it keep
	// their positions. slot3 is the sync network stream and the async
	// job stream.
	initRNG, selRNG, slot2, slot3 *tensor.RNG

	adv      *Adversary
	faults   *FaultPlan
	churn    *ChurnPlan
	prefetch data.Prefetcher

	// tr is the sync engine's transport (nil for async); it counts the
	// wire. cum counts everything else, and on resume it is seeded with
	// the saved totals while the fresh transport counts from zero, so
	// totals() is right either way.
	tr  *Transport
	cum Counters

	// tag and shape identify the engine's snapshots (see decodeFrame);
	// ckptBuf is the last snapshot's bytes, reused by the next one.
	tag     uint64
	shape   []int64
	ckptBuf []byte
}

// newSession validates cfg and builds the setup both engines share.
// Fault decisions and churn availability are pure functions of one seed
// drawn from their streams, so they commute with worker scheduling and
// checkpoint/resume recomputes them free. Cache geometry and prefetch
// resolve against the shadow view (prefetched sybil ids fold onto the
// real shards they recycle) and never touch RNG. The caller must defer
// close.
func newSession(who string, env *Env, cfg Config) (*session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := env.NumClients()
	if n == 0 {
		return nil, fmt.Errorf("%s: environment has no clients", who)
	}
	rng := tensor.NewRNG(cfg.Seed)
	s := &session{cfg: cfg, who: who, hist: &History{}}
	s.initRNG = rng.Split()
	s.selRNG = rng.Split()
	s.slot2 = rng.Split()
	s.slot3 = rng.Split()
	advRNG := rng.Split()
	faultRNG := rng.Split()
	churnRNG := rng.Split()
	s.adv = NewAdversary(cfg.Adversary, n, advRNG)
	s.faults = NewFaultPlan(cfg.Faults, faultRNG.Int63())
	// Label-flip attackers train honestly on dishonest data through a
	// copy-on-write environment; virtual sybils extend its population
	// past n, so selection and per-client state size against it.
	s.env = s.adv.ShadowEnv(env)
	s.n = s.env.NumClients()
	s.churn = NewChurnPlan(cfg.Churn, churnRNG.Int63(), s.n, cfg.Rounds)
	restripeSource(s.env, cfg)
	s.prefetch = sourcePrefetcher(s.env, cfg)
	return s, nil
}

// close stops background prefetch, so an early exit never leaves pool
// goroutines synthesizing into a cache nobody will read.
func (s *session) close() {
	if s.prefetch != nil {
		s.prefetch.CancelPrefetch()
	}
}

// totals returns the run's cumulative counters.
func (s *session) totals() Counters { return s.cum.add(s.tr.Totals()) }

// boundary closes round (or commit) done, 1-based, of total: it records
// an eval point when the cadence asks for one, writes a snapshot when
// Every or StopAfterRound asks for one, and reports whether the run
// stops here. section writes the engine's own snapshot section.
func (s *session) boundary(done, total int, global func() nn.ParamVector, modelEquivalents float64, section func(*enc) error) (stop bool, err error) {
	if done == total || (s.cfg.EvalEvery > 0 && done%s.cfg.EvalEvery == 0) {
		acc, loss, err := evaluate(s.env.Model, global(), s.env.Fed.Test, 64, s.cfg.Allowance())
		if err != nil {
			return false, fmt.Errorf("%s: eval at %d: %w", s.who, done, err)
		}
		s.hist.Metrics = append(s.hist.Metrics, RoundMetric{Round: done, TestAcc: acc, TestLoss: loss,
			CumModelEquivalents: modelEquivalents, Cum: s.totals()})
	}
	ck := s.cfg.Checkpoint
	if !ck.Active() {
		return false, nil
	}
	stop = ck.StopAfterRound > 0 && done == ck.StopAfterRound
	if stop || (ck.Every > 0 && done%ck.Every == 0) {
		data, err := encodeFrame(s.ckptBuf, s.tag, s.cfg.Seed, s.shape, s.totals(), s.hist.Metrics, section)
		if err == nil {
			s.ckptBuf = data
			err = atomicWriteFile(ck.Path, data)
		}
		if err != nil {
			return false, fmt.Errorf("%s: checkpoint at %d: %w", s.who, done, err)
		}
	}
	return stop, nil
}

// resume opens the snapshot at the configured path, hands the engine's
// section to section, and restores the shared counters and metrics.
func (s *session) resume(section func(*dec) error) error {
	path := s.cfg.Checkpoint.Path
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%s: resume: %w", s.who, err)
	}
	f, err := decodeFrame(data, s.tag, s.cfg.Seed, s.shape)
	if err == nil {
		err = section(f.body)
	}
	if err != nil {
		return fmt.Errorf("%s: resume %s: %w", s.who, path, err)
	}
	s.cum, s.hist.Metrics = f.cum, f.metrics
	return nil
}

// finish folds the run totals into the history record.
func (s *session) finish(comm CommProfile) *History {
	s.hist.Comm = comm
	s.hist.Counters = s.totals()
	return s.hist
}
