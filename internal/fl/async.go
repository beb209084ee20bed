package fl

import (
	"fmt"
	"math"
	"sort"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// AsyncOptions configures the buffered-asynchronous (FedBuff-style)
// aggregation mode run by RunAsync. Zero fields take the documented
// defaults, so the zero value is a valid configuration.
type AsyncOptions struct {
	// Buffer is B, the number of upload arrivals folded into the
	// staleness-weighted accumulator between server commits (default 4).
	Buffer int
	// InFlight is M, how many clients the server keeps training
	// concurrently (default Config.ClientsPerRound).
	InFlight int
	// Commits is the number of server version bumps to run (default
	// Config.Rounds) — the async analogue of the round count.
	Commits int
	// StalenessExp is p in the staleness weight 1/(1+s)^p, where s is
	// how many versions the server committed between a client's fetch and
	// its arrival (default 0.5, FedBuff's polynomial damping).
	StalenessExp float64
	// ServerLR is the server step η applied at each commit:
	// w ← w + η/B · Σ weight·Δ (default 1).
	ServerLR float64
	// ComputeSec is the median simulated local-training wall-clock per
	// activation (default 1s); ComputeJitter is the σ of its lognormal
	// multiplier (default 0.5), which is what spreads arrival times even
	// on an ideal network.
	ComputeSec, ComputeJitter float64
}

// Validate reports the first problem with the options.
func (o AsyncOptions) Validate() error {
	switch {
	case o.Buffer < 0:
		return fmt.Errorf("fl: async Buffer = %d, must be non-negative", o.Buffer)
	case o.InFlight < 0:
		return fmt.Errorf("fl: async InFlight = %d, must be non-negative", o.InFlight)
	case o.Commits < 0:
		return fmt.Errorf("fl: async Commits = %d, must be non-negative", o.Commits)
	case o.StalenessExp < 0:
		return fmt.Errorf("fl: async StalenessExp = %v, must be non-negative", o.StalenessExp)
	case o.ServerLR < 0:
		return fmt.Errorf("fl: async ServerLR = %v, must be non-negative", o.ServerLR)
	case o.ComputeSec < 0 || o.ComputeJitter < 0:
		return fmt.Errorf("fl: async compute model (%v, %v) must be non-negative", o.ComputeSec, o.ComputeJitter)
	}
	return nil
}

// resolve fills the documented defaults against the run configuration.
func (o AsyncOptions) resolve(cfg Config) AsyncOptions {
	if o.Buffer == 0 {
		o.Buffer = 4
	}
	if o.InFlight == 0 {
		o.InFlight = cfg.ClientsPerRound
	}
	if o.Commits == 0 {
		o.Commits = cfg.Rounds
	}
	if o.StalenessExp == 0 {
		o.StalenessExp = 0.5
	}
	if o.ServerLR == 0 {
		o.ServerLR = 1
	}
	if o.ComputeSec == 0 {
		o.ComputeSec = 1
	}
	if o.ComputeJitter == 0 {
		o.ComputeJitter = 0.5
	}
	return o
}

// asyncJob is one dispatched client activation in flight between fetch
// and arrival.
type asyncJob struct {
	seq     int // dispatch order, the arrival tie-break
	client  int
	version int            // server version at fetch time
	arrival float64        // simulated arrival instant (seconds)
	fetch   nn.ParamVector // snapshot the client trains from (engine-owned)
	trained nn.ParamVector // filled by the parallel training pass
	done    bool
	rng     tensor.RNGState // the job's training stream, never drawn in place
}

// RunAsync executes a buffered-asynchronous FedAvg-style simulation
// (FedBuff; Nguyen et al., AISTATS 2022): the server keeps
// opts.InFlight clients training concurrently, folds each upload into a
// staleness-weighted accumulator the moment its simulated arrival time
// lands, and commits a version bump every opts.Buffer arrivals:
//
//	w ← w + η/B · Σ_arrivals Δ_c / (1 + staleness_c)^p
//
// Arrival times come from the configured NetworkModel (per-dispatch
// lognormal link draws, exactly the sync transport's jitter scheme) plus
// a lognormal compute-time draw, so fast clients really do lap slow ones
// and staleness is earned rather than scripted.
//
// Determinism contract (the async half of the split contract in
// docs/ARCHITECTURE.md): every random draw — client selection, link and
// compute times, per-job training streams, the Byzantine seed split —
// happens serially at dispatch time, and folds apply in (arrival, seq)
// order. Local training of in-flight clients fans out over the worker
// pool, but each job trains from its own immutable snapshot with its own
// pre-split RNG, so histories are byte-identical at every
// Config.Parallelism / scheduler -jobs setting for a fixed seed.
//
// The simulated wire contributes sizes and times only: payload values
// cross losslessly (a lossy codec still prices EncodedSize bytes; value
// corruption under async delta references is future work). Byzantine
// options apply exactly as in Run — label-flip through the shadow
// environment, model-poisoning at the fold.
func RunAsync(env *Env, cfg Config, opts AsyncOptions) (*History, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// Churn acts on a round's cohort, which the async engine does not
	// have; refuse it rather than silently run the static, always-on
	// fleet. Its stream stays split, keeping both engines' orders
	// parallel.
	if cfg.Churn.Active() {
		return nil, fmt.Errorf("fl: RunAsync: Churn is not supported by the async engine (synchronous Run only)")
	}
	s, err := newSession("fl: RunAsync", env, cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	opts = opts.resolve(cfg)
	codec, err := nn.CodecByName(cfg.Transport.Codec)
	if err != nil {
		return nil, err
	}
	netModel, err := NetworkByName(cfg.Transport.Network)
	if err != nil {
		return nil, err
	}
	// Fault decisions key on (dispatch seq, client), so they are
	// identical at every worker count.
	env, n, adv, faults := s.env, s.n, s.adv, s.faults
	selRNG, timeRNG, jobRNG := s.selRNG, s.slot2, s.slot3
	adv.BeginRound()

	global := nn.FlattenParams(env.Model.New(s.initRNG.Split()).Params())
	dim := len(global)
	wireBytes := codec.EncodedSize(dim)

	// Snapshot/upload buffers recycle through a freelist: at most
	// 2·InFlight parameter-sized vectors are ever live.
	var free []nn.ParamVector
	lease := func() nn.ParamVector {
		if len(free) > 0 {
			v := free[len(free)-1]
			free = free[:len(free)-1]
			return v
		}
		return make(nn.ParamVector, dim)
	}
	release := func(vs ...nn.ParamVector) { free = append(free, vs...) }

	// available is the sorted pool of clients not currently in flight, so
	// the uniform draw below is a pure function of the selection stream.
	// Virtualized federations admit only trainable (non-empty) clients —
	// at million-client scale empty shards are expected, not exceptional;
	// eager federations keep every client, preserving the legacy
	// empty-shard training error.
	available := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if env.Fed.Trainable(i) {
			available = append(available, i)
		}
	}
	if len(available) == 0 {
		return nil, fmt.Errorf("fl: RunAsync: no trainable clients")
	}
	if opts.InFlight > len(available) {
		opts.InFlight = len(available)
	}
	s.hist.Algorithm = "fedbuff"
	s.tag, s.shape = tagAsync, []int64{int64(opts.Commits), int64(opts.Buffer), int64(opts.InFlight), int64(n), int64(dim)}

	acc := make(nn.ParamVector, dim)
	var (
		inflight   []*asyncJob
		now        float64
		seq        int
		version    int
		arrivals   int
		dispatches int
		// folded counts the current window's accepted uploads — the
		// quorum the commit is judged against.
		folded  int
		commits int
	)

	// The async engine's "plan" is the dispatch draw itself: a client's
	// shard is not touched until the batched training pass of the next
	// arrival pop, so warming it at dispatch overlaps synthesis with the
	// folds, evaluations and arrivals in between. Prefetch draws no RNG,
	// so histories are bit-identical with it on or off.
	var prefetchBuf [1]int
	dispatch := func() {
		idx := selRNG.Intn(len(available))
		client := available[idx]
		available = append(available[:idx], available[idx+1:]...)
		if s.prefetch != nil {
			// Warm the dispatched client's shard now; it is trained no
			// earlier than the next arrival pop. Prefetch copies the id
			// synchronously, so the buffer is immediately reusable.
			prefetchBuf[0] = client
			s.prefetch.Prefetch(prefetchBuf[:])
		}
		// Per-dispatch simulated times, drawn in a fixed order: link
		// multipliers exactly like Transport.BeginRound, then compute.
		down, up, lat := mbpsToBytesPerSec(netModel.DownMbps), mbpsToBytesPerSec(netModel.UpMbps), netModel.LatencySec
		if netModel.Jitter > 0 {
			down *= math.Exp(netModel.Jitter * timeRNG.Normal(0, 1))
			up *= math.Exp(netModel.Jitter * timeRNG.Normal(0, 1))
			lat *= math.Exp(netModel.Jitter * timeRNG.Normal(0, 1))
		}
		compute := opts.ComputeSec * math.Exp(opts.ComputeJitter*timeRNG.Normal(0, 1))
		elapsed := 2*lat + compute
		if down > 0 {
			elapsed += float64(wireBytes) / down
		}
		if up > 0 {
			elapsed += float64(wireBytes) / up
		}
		if faults.Straggles(seq, client) {
			// A straggler spike stretches the whole activation — slow
			// links, slow compute — so the arrival lands later, earning
			// real staleness (the async analogue of the sync transport's
			// rate/latency inflation).
			elapsed *= faults.StraggleFactor()
		}
		fetch := lease()
		copy(fetch, global)
		job := &asyncJob{
			seq: seq, client: client, version: version,
			arrival: now + elapsed, fetch: fetch, rng: jobRNG.SplitState(),
		}
		if faults.Crashes(seq, client) {
			// The client dies mid-round: it fetched (bytes down are
			// already spent) but will never train or upload. done with a
			// nil trained vector is the crash marker the fold recognises.
			job.done = true
		}
		inflight = append(inflight, job)
		seq++
		dispatches++
		s.cum.BytesDown += wireBytes
	}

	if cfg.Checkpoint.Resume {
		err := s.resume(func(d *dec) error {
			st, err := readAsyncState(d, opts, n, dim)
			if err != nil {
				return err
			}
			commits, now, seq, version = st.nextCommit, st.now, st.seq, st.version
			arrivals, dispatches = st.arrivals, st.dispatches
			selCap, timeCap, jobCap := st.streamCaps(opts)
			if selRNG, err = tensor.RestoreRNG(st.sel, selCap); err != nil {
				return err
			}
			if timeRNG, err = tensor.RestoreRNG(st.time, timeCap); err != nil {
				return err
			}
			if jobRNG, err = tensor.RestoreRNG(st.job, jobCap); err != nil {
				return err
			}
			available, inflight = st.available, st.jobs
			copy(global, st.global)
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The snapshot was taken inside the commit block, before the
		// dispatch that closes a loop iteration — run that dispatch now.
		if commits < opts.Commits {
			dispatch()
		}
	} else {
		for i := 0; i < opts.InFlight; i++ {
			dispatch()
		}
	}

	for commits < opts.Commits {
		// Pop the earliest arrival (ties broken by dispatch order). The
		// in-flight set is small (M), so a linear scan is the queue.
		best := 0
		for i := 1; i < len(inflight); i++ {
			if inflight[i].arrival < inflight[best].arrival ||
				(inflight[i].arrival == inflight[best].arrival && inflight[i].seq < inflight[best].seq) {
				best = i
			}
		}
		job := inflight[best]
		if !job.done {
			// Batch-train every untrained in-flight client in one parallel
			// pass: each trains from its own snapshot with its own
			// pre-split stream, so results are scheduling-independent and
			// the engine still gets its fan-out.
			if err := trainPending(env, cfg, inflight); err != nil {
				return nil, fmt.Errorf("fl: RunAsync: %w", err)
			}
		}
		inflight = append(inflight[:best], inflight[best+1:]...)
		now = job.arrival

		if job.trained == nil {
			// Fault-injected crash: the slot completes (the server times
			// the client out and moves on) but nothing crossed the uplink.
			s.cum.Crashes++
			release(job.fetch)
		} else {
			s.cum.BytesUp += wireBytes
			switch {
			case faults.Drops(job.seq, job.client, 0),
				faults.Truncates(job.seq, job.client, 0),
				faults.Corrupts(job.seq, job.client, 0):
				// The async wire carries values losslessly, so a
				// truncated or corrupted payload is rejected whole at the
				// server door — observably a drop, and counted as one.
				s.cum.FaultDrops++
			default:
				upload := adv.CorruptUpload(job.client, job.trained)
				if finiteVector(upload) {
					// Fold: staleness-weighted model delta against the fetched
					// snapshot. Non-finite uploads are dropped at the server door,
					// the same screen ReduceUploads applies in the sync engine.
					staleness := float64(version - job.version)
					weight := 1 / math.Pow(1+staleness, opts.StalenessExp)
					for i := range acc {
						acc[i] += weight * (upload[i] - job.fetch[i])
					}
					folded++
				}
				if faults.Duplicates(job.seq, job.client) {
					// The retransmit arrives twice; the server dedupes but
					// the duplicate bytes were spent.
					s.cum.BytesUp += wireBytes
					s.cum.Duplicates++
				}
			}
			release(job.fetch, job.trained)
		}
		arrivals++
		insertSorted(&available, job.client)

		if arrivals%opts.Buffer == 0 {
			if cfg.MinUploads > 0 && folded < cfg.MinUploads {
				// Degraded commit: the window's accepted uploads missed the
				// quorum, so the thin accumulator is discarded and the model
				// survives unchanged. The version still bumps — staleness is
				// wall-clock truth, not a function of acceptance.
				for i := range acc {
					acc[i] = 0
				}
				s.cum.Degraded++
			} else {
				scale := opts.ServerLR / float64(opts.Buffer)
				for i := range global {
					global[i] += scale * acc[i]
					acc[i] = 0
				}
			}
			folded = 0
			version++
			commits++
			if faults.Stalls(commits - 1) {
				// Server stall: the commit pauses before the next dispatch
				// goes out, shifting only work scheduled after it.
				now += faults.StallSec()
				s.cum.Stalls++
			}
			adv.BeginRound()
			stop, err := s.boundary(commits, opts.Commits, func() nn.ParamVector { return global }, float64(dispatches+arrivals), func(e *enc) error {
				st := asyncState{nextCommit: commits, seq: seq, version: version, arrivals: arrivals, dispatches: dispatches,
					now: now, sel: selRNG.State(), time: timeRNG.State(), job: jobRNG.State(),
					available: available, global: global, jobs: inflight}
				st.write(e)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if stop {
				return s.finish(CommProfile{ModelsDown: dispatches, ModelsUp: arrivals}), ErrStopped
			}
			if commits == opts.Commits {
				break
			}
		}
		dispatch()
	}
	return s.finish(CommProfile{ModelsDown: dispatches, ModelsUp: arrivals}), nil
}

// asyncState is RunAsync's own snapshot section at a commit boundary.
// The staleness accumulator is deliberately absent: commits fire exactly
// when it is zeroed, so every snapshot point has an empty window by
// construction.
type asyncState struct {
	nextCommit, seq, version, arrivals, dispatches int
	now                                            float64
	sel, time, job                                 tensor.RNGState
	available                                      []int
	global                                         nn.ParamVector
	// jobs are the in-flight activations: trained is nil for jobs still
	// awaiting the batched training pass and for fault-crashed clients
	// (whose fold is skipped on arrival).
	jobs []*asyncJob
}

// streamCaps returns the most base draws each of RunAsync's snapshotted
// streams can have made (tensor.DrawCap). Commits fire every Buffer
// arrivals and every arrival but the snapshot's own is followed by one
// dispatch, so a snapshot at nextCommit follows at most
// nextCommit·Buffer + InFlight dispatches; each draws one Intn from the
// selection stream, at most four Normals from the time stream and one
// SplitState from the job stream.
func (st *asyncState) streamCaps(opts AsyncOptions) (sel, time, job uint64) {
	d := uint64(st.nextCommit)*uint64(opts.Buffer) + uint64(opts.InFlight)
	return tensor.DrawCap(d), tensor.DrawCap(4 * d), tensor.DrawCap(d)
}

func (st *asyncState) write(e *enc) {
	e.i64(int64(st.nextCommit), int64(st.seq), int64(st.version), int64(st.arrivals), int64(st.dispatches))
	e.f64(st.now)
	e.rng(st.sel)
	e.rng(st.time)
	e.rng(st.job)
	e.ints(st.available)
	e.vec(st.global)
	e.u64(uint64(len(st.jobs)))
	for _, j := range st.jobs {
		done := int64(0)
		if j.done {
			done = 1
		}
		e.i64(int64(j.seq), int64(j.client), int64(j.version))
		e.f64(j.arrival)
		e.i64(done)
		e.vec(j.fetch)
		e.vec(j.trained)
		e.rng(j.rng)
	}
}

// readAsyncState decodes RunAsync's section and checks it against the
// resuming run: vectors of the run's dimension, InFlight−1 jobs (a
// snapshot follows an arrival pop), a fresh training stream for every
// job (training draws from a copy), and a strictly ascending available
// pool of clients in [0, n), disjoint from the in-flight ones and
// non-empty while commits remain (the post-resume dispatch draws from
// it).
func readAsyncState(d *dec, opts AsyncOptions, n, dim int) (*asyncState, error) {
	st := &asyncState{nextCommit: d.int(), seq: d.int(), version: d.int(), arrivals: d.int(), dispatches: d.int(),
		now: d.f64(), sel: d.rng(), time: d.rng(), job: d.rng()}
	if d.err == nil && (st.nextCommit < 0 || st.nextCommit > opts.Commits) {
		d.fail("next commit %d outside [0,%d]", st.nextCommit, opts.Commits)
	}
	st.available = d.ints("available client")
	if st.global = d.vec("global"); d.err == nil && len(st.global) != dim {
		d.fail("global has %d params, want %d", len(st.global), dim)
	}
	nJobs := d.count(maxCkptEntries, 8*8, "in-flight job")
	if d.err == nil && nJobs != opts.InFlight-1 {
		d.fail("%d in-flight jobs, want %d", nJobs, opts.InFlight-1)
	}
	st.jobs = make([]*asyncJob, nJobs)
	for i := range st.jobs {
		j := &asyncJob{seq: d.int(), client: d.int(), version: d.int(), arrival: d.f64(), done: d.i64() != 0}
		j.fetch, j.trained, j.rng = d.vec("job fetch"), d.vec("job trained"), d.rng()
		switch {
		case d.err != nil:
		case len(j.fetch) != dim || (j.trained != nil && len(j.trained) != dim):
			d.fail("job %d vectors (%d, %d params), want %d", i, len(j.fetch), len(j.trained), dim)
		case j.rng.Pos != 0:
			d.fail("job %d stream at position %d, want a fresh one", i, j.rng.Pos)
		}
		st.jobs[i] = j
	}
	if d.err == nil {
		// Every client is either available or in flight, never both.
		seen := make([]bool, n)
		claim := func(c int, what string) {
			if d.err == nil && (c < 0 || c >= n || seen[c]) {
				d.fail("%s client %d outside [0,%d) or listed twice", what, c, n)
			}
			if d.err == nil {
				seen[c] = true
			}
		}
		for i, c := range st.available {
			if i > 0 && c <= st.available[i-1] {
				d.fail("available pool not strictly ascending at %d", i)
			}
			claim(c, "available")
		}
		for _, j := range st.jobs {
			claim(j.client, "in-flight")
		}
		if st.nextCommit < opts.Commits && len(st.available) == 0 {
			d.fail("empty available pool with %d commits left", opts.Commits-st.nextCommit)
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return st, nil
}

// trainPending runs local training for every not-yet-trained in-flight
// job in one parallel batch, writing each result into an engine-owned
// upload buffer.
func trainPending(env *Env, cfg Config, inflight []*asyncJob) error {
	var pending []*asyncJob
	for _, j := range inflight {
		if !j.done {
			pending = append(pending, j)
		}
	}
	jobs := make([]LocalJob, len(pending))
	for i, j := range pending {
		jobs[i] = LocalJob{
			Client: j.client,
			Spec: LocalSpec{
				Init:      j.fetch,
				Epochs:    cfg.LocalEpochs,
				BatchSize: cfg.BatchSize,
				LR:        cfg.LR,
				Momentum:  cfg.Momentum,
			},
			// j.rng is a SplitState, never drawn in place (position 0).
			RNG: tensor.NewRNG(j.rng.Seed),
		}
	}
	results, err := TrainAll(env, jobs, cfg.Allowance())
	if err != nil {
		return err
	}
	for i, j := range pending {
		j.trained = results[i].Params
		j.done = true
	}
	return nil
}

// insertSorted puts c back into the sorted available pool.
func insertSorted(pool *[]int, c int) {
	s := *pool
	i := sort.SearchInts(s, c)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = c
	*pool = s
}
