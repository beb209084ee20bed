package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanRun    = "fl.run"
	spanRound  = "fl.round"
	spanGlobal = "core.global"
	spanLease  = "data.lease"
	spanTrain  = "fl.train"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// base; Parent is the id of the span that caused it (0 for none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one simulation's spans in memory and counts GEMM work
// done inside training spans. Spans are written out once the run ends.
type tracer struct {
	base  time.Time
	runID int64

	mu     sync.Mutex
	spans  []span
	nextID int32
	// open maps a leased client to the start of its training span and
	// the span's parent; a client may hold more than one lease.
	open map[int][]openTrain

	round     atomic.Int32 // id of the open round span (else the run span), the parent of leases
	trainOpen atomic.Int32 // training spans currently open

	gemmNs, gemmCalls, gemmFlop atomic.Int64
}

type openTrain struct {
	start  int64
	parent int32
}

// runSpanID is the id of the span covering the whole run, the parent of
// every span not caused by a round.
const runSpanID = 1

func newTracer(runID int64) *tracer {
	t := &tracer{base: time.Now(), runID: runID, nextID: runSpanID, open: map[int][]openTrain{}}
	t.round.Store(runSpanID)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// newID reserves a span id, so a span can be named as a parent while
// it is still open.
func (t *tracer) newID() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under an id from newID.
func (t *tracer) record(id int32, name string, parent int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.runID, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int32, start, end int64) {
	t.record(t.newID(), name, parent, start, end)
}

// leased records a lease span and opens the client's training span,
// which lasts until the matching Release.
func (t *tracer) leased(id int, start, end int64) {
	parent := t.round.Load()
	t.add(spanLease, parent, start, end)
	t.mu.Lock()
	t.open[id] = append(t.open[id], openTrain{start: end, parent: parent})
	t.mu.Unlock()
	t.trainOpen.Add(1)
}

// released closes the client's most recent training span.
func (t *tracer) released(id int) {
	end := t.now()
	t.mu.Lock()
	stack := t.open[id]
	if len(stack) == 0 {
		t.mu.Unlock()
		return
	}
	o := stack[len(stack)-1]
	if len(stack) == 1 {
		delete(t.open, id)
	} else {
		t.open[id] = stack[:len(stack)-1]
	}
	t.mu.Unlock()
	t.trainOpen.Add(-1)
	t.add(spanTrain, o.parent, o.start, end)
}

// writeFile writes the spans to path as JSON lines, replacing the file.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// source wraps the federation's client source. It always counts leases
// and the sample passes they feed (shard size × local epochs); with a
// tracer it also records lease and training spans. Without one it reads
// no clock, which is the mode the end-to-end metrics are measured in.
type source struct {
	inner   data.ClientSource
	epochs  int
	tr      *tracer
	leases  atomic.Int64
	samples atomic.Int64
}

func (s *source) NumClients() int  { return s.inner.NumClients() }
func (s *source) Size(id int) int  { return s.inner.Size(id) }
func (s *source) Outstanding() int { return s.inner.Outstanding() }

func (s *source) Shard(id int) *data.Dataset {
	if s.tr == nil {
		ds := s.inner.Shard(id)
		s.count(ds)
		return ds
	}
	t0 := s.tr.now()
	ds := s.inner.Shard(id)
	s.tr.leased(id, t0, s.tr.now())
	s.count(ds)
	return ds
}

func (s *source) count(ds *data.Dataset) {
	s.leases.Add(1)
	s.samples.Add(int64(ds.Len() * s.epochs))
}

func (s *source) Release(id int) {
	if s.tr != nil {
		s.tr.released(id)
	}
	s.inner.Release(id)
}

// wrapSource returns s as a ClientSource that also implements exactly
// the optional interfaces its inner source implements, so the engines'
// probes (prefetch, restripe, cache stats) see what they would see
// without the wrapper.
func wrapSource(s *source) data.ClientSource {
	p, isP := s.inner.(data.Prefetcher)
	r, isR := s.inner.(data.Restriper)
	c, isC := s.inner.(data.CacheStatser)
	switch {
	case isP && isR && isC:
		return struct {
			*source
			data.Prefetcher
			data.Restriper
			data.CacheStatser
		}{s, p, r, c}
	case isP && isR:
		return struct {
			*source
			data.Prefetcher
			data.Restriper
		}{s, p, r}
	case isP && isC:
		return struct {
			*source
			data.Prefetcher
			data.CacheStatser
		}{s, p, c}
	case isR && isC:
		return struct {
			*source
			data.Restriper
			data.CacheStatser
		}{s, r, c}
	case isP:
		return struct {
			*source
			data.Prefetcher
		}{s, p}
	case isR:
		return struct {
			*source
			data.Restriper
		}{s, r}
	case isC:
		return struct {
			*source
			data.CacheStatser
		}{s, c}
	}
	return s
}

// algorithm wraps the fl.Algorithm passed to fl.Run, recording a span
// per Round and per Global call.
type algorithm struct {
	inner fl.Algorithm
	tr    *tracer
}

func (a *algorithm) Name() string                   { return a.inner.Name() }
func (a *algorithm) Category() string               { return a.inner.Category() }
func (a *algorithm) RoundComm(k int) fl.CommProfile { return a.inner.RoundComm(k) }

func (a *algorithm) Init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) error {
	return a.inner.Init(env, cfg, rng)
}

func (a *algorithm) Round(r int, selected []int) error {
	t := a.tr
	id := t.newID()
	start := t.now()
	t.round.Store(id)
	err := a.inner.Round(r, selected)
	t.round.Store(runSpanID)
	t.record(id, spanRound, runSpanID, start, t.now())
	return err
}

func (a *algorithm) Global() nn.ParamVector {
	start := a.tr.now()
	g := a.inner.Global()
	a.tr.add(spanGlobal, runSpanID, start, a.tr.now())
	return g
}

// wrapAlgorithm returns a as an fl.Algorithm that also implements
// exactly the optional interfaces its inner algorithm implements:
// a dropped SetTransport or Selector would silently change the run.
func wrapAlgorithm(a *algorithm) fl.Algorithm {
	tu, isT := a.inner.(fl.TransportUser)
	rc, isC := a.inner.(fl.RoundCheckpointer)
	sel, isS := a.inner.(fl.Selector)
	switch {
	case isT && isC && isS:
		return struct {
			*algorithm
			fl.TransportUser
			fl.RoundCheckpointer
			fl.Selector
		}{a, tu, rc, sel}
	case isT && isC:
		return struct {
			*algorithm
			fl.TransportUser
			fl.RoundCheckpointer
		}{a, tu, rc}
	case isT && isS:
		return struct {
			*algorithm
			fl.TransportUser
			fl.Selector
		}{a, tu, sel}
	case isC && isS:
		return struct {
			*algorithm
			fl.RoundCheckpointer
			fl.Selector
		}{a, rc, sel}
	case isT:
		return struct {
			*algorithm
			fl.TransportUser
		}{a, tu}
	case isC:
		return struct {
			*algorithm
			fl.RoundCheckpointer
		}{a, rc}
	case isS:
		return struct {
			*algorithm
			fl.Selector
		}{a, sel}
	}
	return a
}

// backend wraps the installed tensor backend and times the GEMM family
// while a training span is open. Outside training (evaluation, server
// aggregation) it adds one atomic load per call and reads no clock.
type backend struct {
	tensor.Backend
	tr *tracer
}

// counted records one GEMM-family call of groups m×k×n multiplies that
// started at t0.
func (b backend) counted(t0 time.Time, m, k, n, groups int) {
	b.tr.gemmNs.Add(int64(time.Since(t0)))
	b.tr.gemmCalls.Add(1)
	b.tr.gemmFlop.Add(2 * int64(m) * int64(k) * int64(n) * int64(groups))
}

func (b backend) Gemm(dst, a, bm []float64, m, k, n int, transA, transB, acc bool) {
	if b.tr.trainOpen.Load() == 0 {
		b.Backend.Gemm(dst, a, bm, m, k, n, transA, transB, acc)
		return
	}
	t0 := time.Now()
	b.Backend.Gemm(dst, a, bm, m, k, n, transA, transB, acc)
	b.counted(t0, m, k, n, 1)
}

func (b backend) GemmBatch(dst, a, bm []float64, groups, m, k, n, strideD, strideA, strideB int, transA, transB, acc bool) {
	if b.tr.trainOpen.Load() == 0 {
		b.Backend.GemmBatch(dst, a, bm, groups, m, k, n, strideD, strideA, strideB, transA, transB, acc)
		return
	}
	t0 := time.Now()
	b.Backend.GemmBatch(dst, a, bm, groups, m, k, n, strideD, strideA, strideB, transA, transB, acc)
	b.counted(t0, m, k, n, groups)
}

func (b backend) GemmTransBSegAcc(dst, a, bm []float64, m, k, n, seg int) {
	if b.tr.trainOpen.Load() == 0 {
		b.Backend.GemmTransBSegAcc(dst, a, bm, m, k, n, seg)
		return
	}
	t0 := time.Now()
	b.Backend.GemmTransBSegAcc(dst, a, bm, m, k, n, seg)
	b.counted(t0, m, k, n, 1)
}
