package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distributions the library needs. Every
// stochastic component takes an explicit *RNG so experiments are exactly
// reproducible from a single seed.
//
// A generator seeds its math/rand source on its first draw, not at
// construction (see countingSource): seeding costs a few microseconds,
// and an algorithm that splits one child per selected client would
// otherwise pay every one of them serially before dispatch. The stream
// is a pure function of the seed either way.
//
// Concurrency contract: an RNG is NOT safe for concurrent use, and that
// includes its first draw, which builds the source. The supported pattern
// for parallel work is to Split (or SplitN) children from a single
// goroutine *before* dispatch and hand each worker exclusive ownership of
// its child, whose first draw then seeds it inside the worker. Because a
// child's seed is fixed at split time, the streams the workers consume
// are independent of scheduling, which is what makes parallel runs
// bit-identical to serial ones. State is read by the owner, or after the
// owner has handed the generator back.
type RNG struct {
	r    *rand.Rand
	seed int64
	src  *countingSource
}

// countingSource wraps the stdlib source and counts every Int63 draw. It
// deliberately implements only rand.Source (NOT Source64): every rand.Rand
// method this library uses — Float64, Intn, Int63, NormFloat64, Perm,
// Shuffle — bottoms out in Source.Int63, so the wrapped stream is
// bit-identical to the unwrapped one while the counter gives an exact
// stream position. (seed, position) is therefore a complete, restorable
// snapshot of a generator — the fact the round-checkpoint machinery is
// built on.
//
// The stdlib source is built and seeded on the first Int63. The nil check
// sits behind the interface call every draw already makes, so the RNG
// wrappers keep their inlining and an undrawn generator costs three
// small allocations instead of a seeded 4.9 KB source.
type countingSource struct {
	src  rand.Source // nil until the first draw
	seed int64
	n    uint64
}

func (s *countingSource) Int63() int64 {
	if s.src == nil {
		s.seedSource()
	}
	s.n++
	return s.src.Int63()
}

// seedSource builds the stdlib source on the first draw. It is kept out
// of line: inlined into Int63, the allocation gives every draw a stack
// frame, which measured ~60% slower per Float64 on a 2-vCPU x86-64 VM.
//
//go:noinline
func (s *countingSource) seedSource() { s.src = rand.NewSource(s.seed) }

func (s *countingSource) Seed(seed int64) {
	s.src, s.seed, s.n = nil, seed, 0
}

// NewRNG returns a deterministic generator seeded with seed; the source
// itself is seeded on the first draw.
func NewRNG(seed int64) *RNG {
	src := &countingSource{seed: seed}
	return &RNG{r: rand.New(src), seed: seed, src: src}
}

// RNGState is a serializable snapshot of a generator: its construction
// seed plus how many base draws it has consumed. RestoreRNG(State())
// yields a generator whose future draws are bit-identical to the
// original's.
type RNGState struct {
	Seed int64
	Pos  uint64
}

// State snapshots the generator's position.
func (g *RNG) State() RNGState { return RNGState{Seed: g.seed, Pos: g.src.n} }

// RestoreRNG rebuilds a generator at a snapshotted position by replaying
// (and discarding) the consumed prefix of its stream. Replay costs one
// Int63 per consumed draw — cheap even for selection streams that Perm
// over large populations every round, but linear in Pos, which a crafted
// snapshot controls. maxPos is therefore required: the most base draws
// the stream can have consumed, which callers derive with DrawCap from
// the shape of the run the snapshot claims. A larger Pos fails before
// any replay.
func RestoreRNG(st RNGState, maxPos uint64) (*RNG, error) {
	if st.Pos > maxPos {
		return nil, fmt.Errorf("tensor: RNG stream position %d exceeds the %d draws the run can have made", st.Pos, maxPos)
	}
	g := NewRNG(st.Seed)
	for g.src.n < st.Pos {
		g.src.Int63()
	}
	return g, nil
}

// DrawCap bounds the base draws behind `calls` draw calls of the kinds
// the library makes on snapshotted streams: Int63, Float64, Intn,
// Normal, Split, and each entry of a Perm or Shuffle. Every such call
// takes one base draw unless it rejects a sample and redraws — Intn(n)
// with probability below n/2^31, Shuffle's swaps below n/2^32, Normal's
// ziggurat about 1.2% per attempt, Float64 2^-53 — so a stream needs
// more than 2·calls + 64 draws only with vanishing probability, while a
// position beyond it costs a restore at most a small multiple of the
// draws the run itself made. The result saturates instead of wrapping.
func DrawCap(calls uint64) uint64 {
	if calls > (math.MaxUint64-64)/2 {
		return math.MaxUint64
	}
	return 2*calls + 64
}

// Split derives an independent child generator; use it to give each client
// or worker its own stream without coupling their draw order.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// SplitState is Split as a snapshot: it consumes the same parent draw,
// and NewRNG of its seed is the child Split would return, built only
// when it is first needed.
func (g *RNG) SplitState() RNGState { return RNGState{Seed: g.r.Int63()} }

// SplitN derives n independent children in one call, in order. It is the
// pre-dispatch half of the concurrency contract above: call it serially,
// then move each child to its worker, where its first draw seeds it.
// SplitN(n) consumes exactly n draws from g, the same as n consecutive
// Split calls.
func (g *RNG) SplitN(n int) []*RNG {
	children := make([]*RNG, n)
	for i := range children {
		children[i] = g.Split()
	}
	return children
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a sample from N(mean, std²).
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes xs uniformly at random in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Gamma samples from Gamma(shape, 1) using the Marsaglia–Tsang method.
// It is the building block for Dirichlet sampling.
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("tensor: Gamma requires shape > 0")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet samples a probability vector from Dir(alpha, ..., alpha) of
// dimension k. Smaller alpha yields more concentrated (heterogeneous)
// vectors; this is the Dir(β) prior used for non-IID client partitions.
func (g *RNG) Dirichlet(alpha float64, k int) []float64 {
	p := make([]float64, k)
	sum := 0.0
	for i := range p {
		p[i] = g.Gamma(alpha)
		sum += p[i]
	}
	if sum == 0 {
		// Degenerate draw (possible for very small alpha): fall back to a
		// one-hot vector at a uniform index.
		p[g.Intn(k)] = 1
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// Randn fills a fresh tensor of the given shape with N(0, std²) samples.
func (g *RNG) Randn(std float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = g.Normal(0, std)
	}
	return t
}

// Uniform fills a fresh tensor with samples from U[lo, hi).
func (g *RNG) Uniform(lo, hi float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*g.Float64()
	}
	return t
}
