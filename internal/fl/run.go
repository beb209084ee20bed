package fl

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Algorithm is the plug-in point for FL methods. The Runner owns client
// selection and evaluation; the algorithm owns what happens inside a
// round. Algorithms that additionally implement TransportUser receive the
// runner's simulated wire before Init and must route every model-sized
// exchange through it; the six built-in methods all do.
type Algorithm interface {
	// Name identifies the method in reports ("fedavg", "fedcross", ...).
	Name() string
	// Category is the Table-I taxonomy bucket.
	Category() string
	// Init prepares the algorithm's state for the given environment. It
	// is called exactly once before the first round.
	Init(env *Env, cfg Config, rng *tensor.RNG) error
	// Round runs one training round on the selected client indices. A
	// selected index of -1 marks a client that was activated but dropped
	// out (failure injection); algorithms must tolerate it.
	Round(r int, selected []int) error
	// Global returns the current deployment model. For FedCross this
	// triggers GlobalModelGen; for the baselines it is the live global
	// model.
	Global() nn.ParamVector
	// RoundComm is the per-round communication profile for K activated
	// clients.
	RoundComm(k int) CommProfile
}

// Selector is optionally implemented by algorithms that choose their own
// clients (CluSamp's clustered sampling). The Runner falls back to uniform
// random selection otherwise. SelectClients may make at most n+2k+1 draw
// calls on rng (a Perm or Shuffle of the population plus a few picks per
// slot): a resumed run bounds the selection stream's replay by that
// budget (see selectionCalls).
type Selector interface {
	SelectClients(r int, rng *tensor.RNG, n, k int) []int
}

// Counters is a run's cumulative wire and fault telemetry. History
// holds the whole-run totals; each RoundMetric holds the totals up to
// and including its round.
type Counters struct {
	// BytesDown / BytesUp are the wire traffic measured by the transport:
	// byte-accurate encoded payload sizes, not model-equivalents.
	BytesDown, BytesUp int64
	// Stragglers counts clients whose upload missed the round deadline
	// (0 unless Config.Transport sets a deadline).
	Stragglers int
	// Retries / FaultDrops / Duplicates / Stalls are the fault-injection
	// telemetry: retry attempts, clients permanently lost to wire faults,
	// duplicate deliveries, and stalled rounds (0 unless Config.Faults is
	// active).
	Retries, FaultDrops, Duplicates, Stalls int
	// Crashes counts fault-injected pre-training client crashes.
	Crashes int
	// Unavailable counts selection slots lost to churn (offline or
	// departed clients; 0 unless Config.Churn is active).
	Unavailable int
	// Degraded counts rounds whose accepted uploads fell below the
	// Config.MinUploads quorum, so the server kept its current model.
	Degraded int
}

// add returns the field-wise sum c + o.
func (c Counters) add(o Counters) Counters {
	c.BytesDown += o.BytesDown
	c.BytesUp += o.BytesUp
	c.Stragglers += o.Stragglers
	c.Retries += o.Retries
	c.FaultDrops += o.FaultDrops
	c.Duplicates += o.Duplicates
	c.Stalls += o.Stalls
	c.Crashes += o.Crashes
	c.Unavailable += o.Unavailable
	c.Degraded += o.Degraded
	return c
}

// RoundMetric records the state after one evaluated round.
type RoundMetric struct {
	// Round is the 1-based round index.
	Round int
	// TestAcc and TestLoss are the global model's held-out metrics.
	TestAcc, TestLoss float64
	// CumModelEquivalents is cumulative communication in model-sized
	// units up to and including this round (the analytic Table-I view).
	CumModelEquivalents float64
	// Cum holds the counters up to and including this round.
	Cum Counters
}

// History is a full run record.
type History struct {
	// Algorithm is the method name.
	Algorithm string
	// Metrics holds one entry per evaluated round.
	Metrics []RoundMetric
	// Comm is the whole-run communication total in analytic units.
	Comm CommProfile
	// Counters holds the whole-run totals.
	Counters
}

// TotalBytes returns the run's whole wire traffic in both directions.
func (h *History) TotalBytes() int64 { return h.BytesDown + h.BytesUp }

// Final returns the last evaluated metric.
func (h *History) Final() RoundMetric {
	if len(h.Metrics) == 0 {
		return RoundMetric{}
	}
	return h.Metrics[len(h.Metrics)-1]
}

// BestAcc returns the best test accuracy seen at any evaluation point.
func (h *History) BestAcc() float64 {
	best := 0.0
	for _, m := range h.Metrics {
		if m.TestAcc > best {
			best = m.TestAcc
		}
	}
	return best
}

// RoundsToAcc returns the first evaluated round reaching acc, or -1.
func (h *History) RoundsToAcc(acc float64) int {
	for _, m := range h.Metrics {
		if m.TestAcc >= acc {
			return m.Round
		}
	}
	return -1
}

// Run executes a full FL simulation: Init, Rounds× (select → algorithm
// round → optional eval), returning the metric history.
func Run(algo Algorithm, env *Env, cfg Config) (*History, error) {
	s, err := newSession("fl: Run", env, cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	env, n := s.env, s.n
	k := min(cfg.ClientsPerRound, n)
	// Slot 2 stays unused; slot 3 feeds each round's link draws.
	netRNG := s.slot3
	tr, err := NewTransport(cfg.Transport)
	if err != nil {
		return nil, fmt.Errorf("fl: Run: %w", err)
	}
	tr.SetAdversary(s.adv)
	tr.SetFaultPlan(s.faults)
	s.tr = tr
	if ws, ok := cfg.Reducer.(WorkersSetter); ok {
		ws.SetWorkers(cfg.Allowance())
	}
	if tu, ok := algo.(TransportUser); ok {
		tu.SetTransport(tr)
	}
	rc, _ := algo.(RoundCheckpointer)
	if cfg.Checkpoint.Active() && rc == nil {
		return nil, fmt.Errorf("fl: Run: algorithm %s does not support round checkpoints", algo.Name())
	}
	if err := algo.Init(env, cfg, s.initRNG); err != nil {
		return nil, fmt.Errorf("fl: Run: init %s: %w", algo.Name(), err)
	}
	s.hist.Algorithm = algo.Name()
	s.tag, s.shape = tagRun, []int64{int64(cfg.Rounds), int64(cfg.ClientsPerRound), int64(n)}
	var acct Accountant
	genFrac := 0.25 // generators are a quarter model, cf. comm.go
	planner := newCohortPlanner(algo, s.selRNG, n, k, s.churn)
	startRound := 0
	if cfg.Checkpoint.Resume {
		// The algorithm re-ran Init (consuming initRNG exactly as the
		// original run did) and LoadState now replaces its state
		// wholesale. Fault, churn and adversary schedules are recomputed:
		// they are pure functions of the seed.
		err := s.resume(func(d *dec) error {
			st, err := readRunState(d, algo.Name(), cfg.Rounds, n, k)
			if err != nil {
				return err
			}
			if err := rc.LoadState(bytes.NewReader(st.algoState)); err != nil {
				return fmt.Errorf("%s state: %w", algo.Name(), err)
			}
			selCap, netCap := st.streamCaps(n, k)
			selRNG, err := tensor.RestoreRNG(st.sel, selCap)
			if err != nil {
				return err
			}
			if netRNG, err = tensor.RestoreRNG(st.net, netCap); err != nil {
				return err
			}
			startRound = st.nextRound
			planner = newCohortPlanner(algo, selRNG, n, k, s.churn)
			planner.next, planner.drawn = st.plannerNext, st.drawn
			acct = st.acct
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	for r := startRound; r < cfg.Rounds; r++ {
		selected := planner.Take(r)
		if s.churn.Active() {
			// Slots the planner padded or marked -1 are churn losses;
			// crash marking below adds its own.
			for _, ci := range selected {
				if ci < 0 {
					s.cum.Unavailable++
				}
			}
		}
		if s.faults.Active() && cfg.Faults.CrashRate > 0 {
			// A crash consumes the activation but contributes nothing —
			// marked -1 like any lost slot, which every algorithm
			// tolerates.
			for i, ci := range selected {
				if ci >= 0 && s.faults.Crashes(r, ci) {
					selected[i] = -1
					s.cum.Crashes++
				}
			}
		}
		// Hand the next rounds' planned cohorts to the background pool
		// before training starts, so their shards synthesize while this
		// round computes. The planner draws those cohorts now, but from
		// the same selRNG positions they would occupy anyway — selection
		// is a dedicated stream, so early draws are invisible. Prefetch
		// enqueues pre-crash plans (a crashed client's warm shard is
		// merely unused) and copies the ids before returning, so the
		// round loop's later in-place crash marking never races it.
		if s.prefetch != nil {
			for a := 1; a <= cfg.PrefetchRounds && r+a < cfg.Rounds; a++ {
				if ids := planner.Ahead(r + a); ids != nil {
					s.prefetch.Prefetch(ids)
				}
			}
		}
		tr.BeginRound(r, selected, netRNG.Split())
		if err := algo.Round(r, selected); err != nil {
			return nil, fmt.Errorf("fl: Run: %s round %d: %w", algo.Name(), r, err)
		}
		if cfg.MinUploads > 0 && tr.RoundUploaders() < cfg.MinUploads {
			// The algorithms' reduce paths kept the current model (see
			// ReduceUploads quorum gating); the engine records that the
			// round degraded rather than aggregated.
			s.cum.Degraded++
		}
		tr.EndRound()
		acct.Record(algo.RoundComm(k))

		stop, err := s.boundary(r+1, cfg.Rounds, algo.Global, acct.Total().TotalModelEquivalents(genFrac), func(e *enc) error {
			var blob bytes.Buffer
			if err := rc.SaveState(&blob); err != nil {
				return fmt.Errorf("%s state: %w", algo.Name(), err)
			}
			if blob.Len() > maxCkptBlob {
				return fmt.Errorf("%s state %d bytes exceeds cap", algo.Name(), blob.Len())
			}
			st := runState{algo: algo.Name(), nextRound: r + 1, plannerNext: planner.next, drawn: planner.drawn,
				sel: planner.rng.State(), net: netRNG.State(), acct: acct, algoState: blob.Bytes()}
			st.write(e)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if stop {
			return s.finish(acct.Total()), ErrStopped
		}
	}
	return s.finish(acct.Total()), nil
}

// runState is Run's own snapshot section: everything past the shared
// frame that a resumed run needs at a round boundary.
type runState struct {
	algo        string
	nextRound   int
	plannerNext int
	// drawn holds the planner's lookahead cohorts: they left the
	// selection stream before the snapshot position, so they travel
	// with it.
	drawn     map[int][]int
	sel, net  tensor.RNGState
	acct      Accountant
	algoState []byte
}

func (st *runState) write(e *enc) {
	e.bytes([]byte(st.algo))
	e.i64(int64(st.nextRound), int64(st.plannerNext), int64(st.acct.rounds))
	t := st.acct.total
	e.i64(int64(t.ModelsDown), int64(t.ModelsUp), int64(t.VarsDown), int64(t.VarsUp), int64(t.GeneratorsDown))
	e.rng(st.sel)
	e.rng(st.net)
	keys := slices.Sorted(maps.Keys(st.drawn))
	e.u64(uint64(len(keys)))
	for _, r := range keys {
		e.i64(int64(r))
		e.ints(st.drawn[r])
	}
	e.bytes(st.algoState)
}

// readRunState decodes Run's section and checks it against the resuming
// run: the algorithm name, the round range, and every lookahead cohort,
// which must cover exactly rounds [nextRound, plannerNext) with k ids
// each in [-1, n).
func readRunState(d *dec, algo string, rounds, n, k int) (*runState, error) {
	st := &runState{algo: string(d.bytes(maxCkptString, "algorithm name"))}
	st.nextRound, st.plannerNext, st.acct.rounds = d.int(), d.int(), d.int()
	t := &st.acct.total
	t.ModelsDown, t.ModelsUp, t.VarsDown, t.VarsUp, t.GeneratorsDown = d.int(), d.int(), d.int(), d.int(), d.int()
	st.sel, st.net = d.rng(), d.rng()
	switch {
	case d.err != nil:
	case st.algo != algo:
		d.fail("checkpoint algorithm %q != run algorithm %q", st.algo, algo)
	case st.nextRound < 0 || st.nextRound > st.plannerNext || st.plannerNext > rounds:
		d.fail("rounds (next %d, planned %d) outside 0 ≤ next ≤ planned ≤ %d", st.nextRound, st.plannerNext, rounds)
	}
	nDrawn := d.count(maxCkptEntries, 16, "planned cohort")
	if d.err == nil && nDrawn != st.plannerNext-st.nextRound {
		d.fail("%d planned cohorts, want %d", nDrawn, st.plannerNext-st.nextRound)
	}
	st.drawn = make(map[int][]int, nDrawn)
	for range nDrawn {
		r := d.int()
		ids := d.ints("planned cohort")
		if _, dup := st.drawn[r]; d.err == nil && (dup || r < st.nextRound || r >= st.plannerNext || len(ids) != k) {
			d.fail("planned cohort for round %d (%d ids) outside rounds [%d,%d) with %d ids each", r, len(ids), st.nextRound, st.plannerNext, k)
		}
		for _, id := range ids {
			if d.err == nil && (id < -1 || id >= n) {
				d.fail("planned client %d outside [-1,%d)", id, n)
			}
		}
		st.drawn[r] = ids
	}
	st.algoState = d.bytes(maxCkptBlob, "algorithm state")
	if err := d.end(); err != nil {
		return nil, err
	}
	return st, nil
}

// streamCaps returns the most base draws each of Run's snapshotted
// streams can have made (tensor.DrawCap): the selection stream draws one
// cohort per planned round, selectionCalls(n, k) calls at most, and the
// network stream one Split per completed round.
func (st *runState) streamCaps(n, k int) (sel, net uint64) {
	return tensor.DrawCap(uint64(st.plannerNext) * selectionCalls(n, k)), tensor.DrawCap(uint64(st.nextRound))
}

// selectionCalls bounds the draw calls behind one cohort: a Selector's own
// budget of n+2k+1, plus the uniform Perm(n) that selectClients falls
// back to when a Selector returns a short cohort.
func selectionCalls(n, k int) uint64 { return uint64(2*n + 2*k + 1) }

// selectClients asks the algorithm first and falls back to uniform random
// selection without replacement. An active churn plan biases selection to
// available clients: the uniform path draws its one Perm(n) as always
// (the stream's shape never depends on churn) and then takes the first k
// available ids, padding with -1 when fewer exist; a Selector's
// self-chosen cohort has its offline members marked -1 after the fact.
func selectClients(algo Algorithm, r int, rng *tensor.RNG, n, k int, churn *ChurnPlan) []int {
	if s, ok := algo.(Selector); ok {
		sel := s.SelectClients(r, rng, n, k)
		if len(sel) == k {
			if churn.Active() {
				for i, id := range sel {
					if id >= 0 && !churn.Available(r, id) {
						sel[i] = -1
					}
				}
			}
			return sel
		}
	}
	perm := rng.Perm(n)
	if !churn.Active() {
		return perm[:k]
	}
	out := make([]int, 0, k)
	for _, id := range perm {
		if len(out) == k {
			break
		}
		if churn.Available(r, id) {
			out = append(out, id)
		}
	}
	for len(out) < k {
		out = append(out, -1)
	}
	return out
}
