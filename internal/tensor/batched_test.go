package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// equalBits fails the test at the first element whose bit pattern
// differs — the lowering/backends contract is exact, not approximate.
func equalBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// gemmCase is one backend-level multiply: form selects NN, TransA
// ("ta"), TransB ("tb") or GemmTransBSegAcc ("seg", acc always true).
// Storage follows Backend.Gemm: a is m×k (k×m for ta), b is k×n (n×k
// for tb and seg), dst is m×n.
type gemmCase struct {
	form    string
	m, k, n int
	seg     int
	acc     bool
}

func (c gemmCase) String() string {
	return fmt.Sprintf("%s m=%d k=%d n=%d seg=%d acc=%v", c.form, c.m, c.k, c.n, c.seg, c.acc)
}

// run applies the case under backend be to copies of the operands and
// returns dst.
func (c gemmCase) run(be Backend, a, b, seed []float64) []float64 {
	dst := append([]float64(nil), seed[:c.m*c.n]...)
	switch c.form {
	case "nn":
		be.Gemm(dst, a, b, c.m, c.k, c.n, false, false, c.acc)
	case "ta":
		be.Gemm(dst, a, b, c.m, c.k, c.n, true, false, c.acc)
	case "tb":
		be.Gemm(dst, a, b, c.m, c.k, c.n, false, true, c.acc)
	case "seg":
		be.GemmTransBSegAcc(dst, a, b, c.m, c.k, c.n, c.seg)
	}
	return dst
}

// checkGemmCase runs c under both backends on the given operands and
// requires identical bits.
func checkGemmCase(t *testing.T, platform Backend, c gemmCase, a, b, seed []float64) {
	t.Helper()
	equalBits(t, c.String(), c.run(platform, a, b, seed), c.run(GoBackend{}, a, b, seed))
}

// TestBackendsBitIdentical runs the matmul family under the
// platform-default backend and under the pure-Go backend on identical
// inputs and requires exact bitwise agreement — the accelerated
// backend's core contract. The shape grid crosses every residue of m
// mod 4, n mod 8 and k mod 4 with at least one full register tile (4×8
// for NN/TransA, 2×4 for TransB), segment lengths on and off the 4-lane
// tile width, both acc modes, the fedcross-cnn and SentLSTM training
// shapes, and operands holding NaN, ±Inf, products and sums that
// overflow, and columns whose every product is −0. Backend.GemmBatch,
// which no MatMul* wrapper reaches, is additionally pinned under each
// backend against a loop of that backend's own Gemm calls. On platforms
// where the default IS GoBackend the comparisons degenerate to
// self-comparisons and pass trivially.
func TestBackendsBitIdentical(t *testing.T) {
	platform := CurrentBackend()
	rng := NewRNG(5)
	const maxDim = 3200 * 72
	a := rng.Uniform(-1, 1, maxDim).Data
	b := rng.Uniform(-1, 1, maxDim).Data
	seed := rng.Uniform(-1, 1, maxDim).Data

	var cases []gemmCase
	for m := 1; m <= 9; m++ {
		for k := 0; k <= 9; k++ {
			for n := 1; n <= 17; n++ {
				for _, acc := range []bool{false, true} {
					for _, form := range []string{"nn", "ta", "tb"} {
						cases = append(cases, gemmCase{form: form, m: m, k: k, n: n, acc: acc})
					}
				}
			}
		}
	}
	for _, seg := range []int{4, 16, 64, 6} {
		for _, segs := range []int{1, 3} {
			for m := 1; m <= 5; m++ {
				for n := 1; n <= 9; n++ {
					cases = append(cases, gemmCase{form: "seg", m: m, k: seg * segs, n: n, seg: seg})
				}
			}
		}
	}
	// fedcross-cnn at batch 50 and at a ragged last batch of 37 (conv
	// forward, dW and Wᵀ·dy; fc1 and fc2 forward, dW and dx), then
	// SentLSTM's gate multiplies, their dW and their dx at batch 50.
	for _, batch := range []int{50, 37} {
		cases = append(cases,
			gemmCase{form: "nn", m: 8, k: 27, n: batch * 64},
			gemmCase{form: "seg", m: 8, k: batch * 64, n: 27, seg: 64},
			gemmCase{form: "nn", m: 16, k: 72, n: batch * 16},
			gemmCase{form: "seg", m: 16, k: batch * 16, n: 72, seg: 16},
			gemmCase{form: "ta", m: 72, k: 16, n: batch * 16},
			gemmCase{form: "nn", m: batch, k: 64, n: 32},
			gemmCase{form: "ta", m: 64, k: batch, n: 32, acc: true},
			gemmCase{form: "tb", m: batch, k: 32, n: 64},
			gemmCase{form: "nn", m: batch, k: 32, n: 10},
			gemmCase{form: "ta", m: 32, k: batch, n: 10, acc: true},
			gemmCase{form: "tb", m: batch, k: 10, n: 32},
		)
	}
	for _, h := range []int{6, 12} {
		cases = append(cases,
			gemmCase{form: "nn", m: 50, k: h, n: 48},
			gemmCase{form: "nn", m: 50, k: h, n: 48, acc: true},
			gemmCase{form: "ta", m: h, k: 50, n: 48, acc: true},
			gemmCase{form: "tb", m: 50, k: 48, n: h},
		)
	}
	for _, c := range cases {
		checkGemmCase(t, platform, c, a, b, seed)
	}

	// Special values. The injected NaN is the x86 default quiet NaN —
	// the pattern Inf-Inf and 0·Inf produce — so every NaN in a chain
	// carries one payload and the exact-bits comparison stays
	// meaningful whichever operand the hardware propagates.
	qnan := math.Float64frombits(0xFFF8000000000000)
	negZero := math.Copysign(0, -1)
	specials := []float64{qnan, math.Inf(1), math.Inf(-1), 1e200, -1e200, 1e308, negZero, 0}
	sa := append([]float64(nil), a[:4096]...)
	sb := append([]float64(nil), b[:4096]...)
	sseed := append([]float64(nil), seed[:4096]...)
	for i := range sa {
		if rng.Intn(7) == 0 {
			sa[i] = specials[rng.Intn(len(specials))]
		}
		if rng.Intn(7) == 0 {
			sb[i] = specials[rng.Intn(len(specials))]
		}
		if rng.Intn(7) == 0 {
			sseed[i] = specials[rng.Intn(len(specials))]
		}
	}
	// All-−0 products: a strictly positive, b all −0. A non-acc kernel
	// that seeded its accumulator with the first product would return −0
	// where the +0-seeded chain returns +0.
	pa := make([]float64, 4096)
	nz := make([]float64, 4096)
	for i := range pa {
		pa[i] = 0.5 + rng.Float64()
		nz[i] = negZero
	}
	for _, sh := range [][3]int{{9, 12, 19}, {8, 16, 16}, {5, 7, 13}, {50, 48, 12}} {
		m, k, n := sh[0], sh[1], sh[2]
		for _, form := range []string{"nn", "ta", "tb"} {
			for _, acc := range []bool{false, true} {
				c := gemmCase{form: form, m: m, k: k, n: n, acc: acc}
				checkGemmCase(t, platform, c, sa, sb, sseed)
				checkGemmCase(t, platform, c, pa, nz, sseed)
			}
		}
		for _, seg := range []int{4, 6} {
			c := gemmCase{form: "seg", m: m, k: 12 * seg, n: n, seg: seg}
			checkGemmCase(t, platform, c, sa, sb, sseed)
		}
	}
	if got := (gemmCase{form: "nn", m: 8, k: 12, n: 16}).run(platform, pa, nz, sseed); math.Signbit(got[0]) {
		t.Fatalf("all −0 products with acc=false gave −0, want +0")
	}

	// GemmBatch: G groups of dst (m×n) = or += a·b over strided slabs, and the
	// broadcast form (strideA == 0) sharing one a across every group.
	const G, m, k, n = 3, 7, 13, 9
	ga := rng.Uniform(-1, 1, G, m, k)
	gb := rng.Uniform(-1, 1, G, k, n)
	gseed := rng.Uniform(-1, 1, G, m, n)
	for _, be := range []Backend{platform, GoBackend{}} {
		for _, c := range []struct {
			name    string
			a       []float64
			strideA int
		}{{"strided", ga.Data, m * k}, {"broadcast", a, 0}} {
			name := "GemmBatch/" + c.name + "/" + be.Name()
			for _, acc := range []bool{false, true} {
				batched := append([]float64(nil), gseed.Data...)
				looped := append([]float64(nil), gseed.Data...)
				be.GemmBatch(batched, c.a, gb.Data, G, m, k, n, m*n, c.strideA, k*n, false, false, acc)
				for g := 0; g < G; g++ {
					be.Gemm(looped[g*m*n:], c.a[g*c.strideA:], gb.Data[g*k*n:], m, k, n, false, false, acc)
				}
				equalBits(t, name, batched, looped)
			}
		}
	}
}

// TestFloat16EncodeSliceMatchesScalar pins the unrolled fp16 encoder
// against per-element Float16Bits over randoms and every special class:
// zeros, subnormals, overflow, infinities, NaN, and exact halves.
func TestFloat16EncodeSliceMatchesScalar(t *testing.T) {
	rng := NewRNG(11)
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 65504, -65504, 65520, 70000,
		math.Inf(1), math.Inf(-1), math.NaN(),
		5.96046448e-08, 6.103515625e-05, 1e-300, -1e-300, 2.5e-8,
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, rng.Normal(0, 1))
		vals = append(vals, rng.Normal(0, 1e4))
	}
	// Cover every slice length mod 4 so the unrolled body and the tail
	// both run.
	for length := len(vals) - 4; length <= len(vals); length++ {
		src := vals[:length]
		got := make([]byte, 2*length)
		Float16EncodeSlice(got, src)
		for i, v := range src {
			want := Float16Bits(v)
			have := binary.LittleEndian.Uint16(got[2*i:])
			if have != want {
				t.Fatalf("len %d element %d (%v): slice %#04x scalar %#04x", length, i, v, have, want)
			}
		}
	}
}
