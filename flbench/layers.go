package main

import (
	"math"
	"runtime"
	"sort"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// layerInputs are the counters read around the run for the per-layer
// metrics.
type layerInputs struct {
	cacheBefore, cacheAfter data.CacheStats
	memBefore, memAfter     *runtime.MemStats
	ckptBytes               int64
}

// layerMetrics derives the per-layer metrics of one traced run from its
// spans and counters. A layer's self time is its span's duration minus
// the union of its children's intervals. Round, Global and evaluation
// times come from the fl.Algorithm seam, which only the synchronous
// engine has; on the async workload they read 0.
func layerMetrics(tr *tracer, w workload, workers int, hist *fl.History, in layerInputs) map[string]float64 {
	var runSpan span
	var rounds, globals, trains []span
	children := map[int32][]span{}
	var leaseNs, trainNs int64
	var leases int
	for _, s := range tr.spans {
		switch s.Name {
		case spanRun:
			runSpan = s
		case spanRound:
			rounds = append(rounds, s)
		case spanGlobal:
			globals = append(globals, s)
		case spanLease:
			leases++
			leaseNs += s.dur()
			children[s.Parent] = append(children[s.Parent], s)
		case spanTrain:
			trainNs += s.dur()
			trains = append(trains, s)
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].Start < rounds[j].Start })

	var roundNs, roundSelfNs, globalNs, evalNs int64
	roundMs := make([]float64, len(rounds))
	for i, r := range rounds {
		roundNs += r.dur()
		roundSelfNs += r.dur() - unionNs(children[r.ID], r.Start, r.End)
		roundMs[i] = float64(r.dur()) / 1e6
	}
	for _, g := range globals {
		globalNs += g.dur()
		// Evaluation runs from Global's return to the next round (or
		// the end of the run, after the last round).
		next := runSpan.End
		if i := sort.Search(len(rounds), func(i int) bool { return rounds[i].Start >= g.End }); i < len(rounds) {
			next = rounds[i].Start
		}
		evalNs += next - g.End
	}
	trainWallNs := unionNs(trains, runSpan.Start, runSpan.End)
	engineSelfNs := runSpan.dur() - roundNs - globalNs - evalNs
	if w.algo == "" {
		// The async engine has no Round or Global seam: everything
		// outside local training is the engine's own.
		engineSelfNs = runSpan.dur() - trainWallNs
	}
	idle := 0.0
	if trainWallNs > 0 {
		idle = 1 - float64(trainNs)/(float64(workers)*float64(trainWallNs))
	}

	gemmNs := tr.gemmNs.Load()
	gemmGflop := float64(tr.gemmFlop.Load()) / 1e9
	gemmRate := 0.0
	if gemmNs > 0 {
		gemmRate = gemmGflop / (float64(gemmNs) / 1e9)
	}

	hits := in.cacheAfter.Hits - in.cacheBefore.Hits + in.cacheAfter.PrefetchHits - in.cacheBefore.PrefetchHits
	misses := in.cacheAfter.Misses - in.cacheBefore.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}

	nRounds := w.profile.Rounds
	var up, down int64
	if hist != nil {
		up, down = hist.BytesUp, hist.BytesDown
	}
	ckpts := 0
	if w.ckptEvery > 0 {
		// The engines expose no seam around snapshot writes; the count
		// is the schedule, and the run's check confirms the file exists.
		ckpts = nRounds / w.ckptEvery
	}

	return map[string]float64{
		"data.lease_busy_s":         seconds(leaseNs),
		"data.leases":               float64(leases),
		"data.cache_hit_ratio":      hitRatio,
		"data.evictions":            float64(in.cacheAfter.Evictions - in.cacheBefore.Evictions),
		"fl.train_busy_s":           seconds(trainNs),
		"fl.train_idle_frac":        idle,
		"tensor.gemm_busy_s":        seconds(gemmNs),
		"tensor.gemm_calls":         float64(tr.gemmCalls.Load()),
		"tensor.gemm_gflop":         gemmGflop,
		"tensor.gemm_gflops":        gemmRate,
		"nn.nongemm_busy_s":         seconds(trainNs - gemmNs),
		"fl.round_ms_p50":           percentile(roundMs, 0.5),
		"fl.round_ms_p90":           percentile(roundMs, 0.9),
		"fl.rounds":                 float64(len(rounds)),
		"fl.round_self_s":           seconds(roundSelfNs),
		"core.global_s":             seconds(globalNs),
		"fl.eval_s":                 seconds(evalNs),
		"fl.engine_self_s":          seconds(engineSelfNs),
		"fl.wire_bytes_up":          float64(up),
		"fl.wire_bytes_down":        float64(down),
		"fl.checkpoints":            float64(ckpts),
		"fl.checkpoint_kb":          float64(in.ckptBytes) / 1024,
		"runtime.mallocs_per_round": float64(in.memAfter.Mallocs-in.memBefore.Mallocs) / float64(nRounds),
		"runtime.gc_cycles":         float64(in.memAfter.NumGC - in.memBefore.NumGC),
		"runtime.gc_pause_s":        seconds(int64(in.memAfter.PauseTotalNs - in.memBefore.PauseTotalNs)),
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// unionNs returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func unionNs(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	// Sweep: extend the current run while intervals overlap it.
	var total, curStart, curEnd int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curStart, curEnd, open = v[0], v[1], true
		case v[0] <= curEnd:
			curEnd = max(curEnd, v[1])
		default:
			total += curEnd - curStart
			curStart, curEnd = v[0], v[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
