package tensor

import (
	"fmt"
	"math"
	"testing"
)

// scalarPool2x2 is the reference 2×2/2 max pool with argmax — the exact
// loop nn.MaxPool2D runs when the accelerated kernel declines.
func scalarPool2x2(dst []float64, am []int, src []float64, w, oh, ow, planes int) {
	h := 2 * oh
	for c := 0; c < planes; c++ {
		obase := c * oh * ow
		ibase := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := ibase + (oy*2+dy)*w + (ox*2 + dx)
						if src[idx] > best {
							best = src[idx]
							bestIdx = idx
						}
					}
				}
				o := obase + oy*ow + ox
				dst[o] = best
				am[o] = bestIdx
			}
		}
	}
}

// TestMaxPool2x2MatchesScalar pins MaxPool2x2 — the vector kernel for
// ow a multiple of 4, the conditional-move path otherwise — against the
// scalar reference bit for bit, values and argmax indices, across random
// shapes with NaN injection, forced ties and all-NaN windows, the cases
// where a compare-and-select kernel could legally diverge from the
// scalar first-strictly-greater semantics.
func TestMaxPool2x2MatchesScalar(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 100; trial++ {
		ow := []int{1, 2, 3, 6, 4, 8, 12}[trial%7]
		w := 2 * ow
		oh := 1 + rng.Intn(5)
		planes := 1 + rng.Intn(6)
		src := make([]float64, planes*2*oh*w)
		for i := range src {
			src[i] = rng.Normal(0, 1)
			if rng.Intn(10) == 0 {
				src[i] = math.NaN()
			}
			if rng.Intn(10) == 0 {
				src[i] = src[(i+7)%len(src)] // force ties
			}
		}
		// One all-NaN window (argmax -1, value -Inf) and one window tied
		// at -Inf (no tap beats the start value either).
		for _, d := range []int{0, 1, w, w + 1} {
			src[d] = math.NaN()
			if len(src) > 2+d {
				src[2+d] = math.Inf(-1)
			}
		}
		d1 := make([]float64, planes*oh*ow)
		a1 := make([]int, planes*oh*ow)
		d2 := make([]float64, planes*oh*ow)
		a2 := make([]int, planes*oh*ow)
		MaxPool2x2(d1, a1, src, w, oh, ow, planes)
		scalarPool2x2(d2, a2, src, w, oh, ow, planes)
		for i := range d1 {
			if math.Float64bits(d1[i]) != math.Float64bits(d2[i]) || a1[i] != a2[i] {
				t.Fatalf("trial %d ow %d idx %d: kernel (%v,%d) scalar (%v,%d)", trial, ow, i, d1[i], a1[i], d2[i], a2[i])
			}
		}
		if a1[0] != -1 {
			t.Fatalf("trial %d ow %d: all-NaN window argmax %d, want -1", trial, ow, a1[0])
		}
	}
}

// BenchmarkMaxPool2x2 times MaxPool2x2 against the scalar loop on
// fedcross-cnn's two pool shapes: 8×8 planes (ow=4, vector kernel) and
// 4×4 planes (ow=2, conditional-move path).
func BenchmarkMaxPool2x2(b *testing.B) {
	for _, sh := range []struct{ w, oh, ow, planes int }{{8, 4, 4, 8}, {4, 2, 2, 16}} {
		rng := NewRNG(1)
		src := make([]float64, sh.planes*2*sh.oh*sh.w)
		for i := range src {
			src[i] = rng.Normal(0, 1)
		}
		dst := make([]float64, sh.planes*sh.oh*sh.ow)
		am := make([]int, sh.planes*sh.oh*sh.ow)
		name := fmt.Sprintf("ow=%d", sh.ow)
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MaxPool2x2(dst, am, src, sh.w, sh.oh, sh.ow, sh.planes)
			}
		})
		b.Run(name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scalarPool2x2(dst, am, src, sh.w, sh.oh, sh.ow, sh.planes)
			}
		})
	}
}
