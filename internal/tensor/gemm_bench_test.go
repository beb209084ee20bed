package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkGemmShapes times every Gemm form at the training shapes of
// the fedcross-cnn workload (vision10 8×8×3 input, batch 50: conv1 3→8
// and conv2 8→16 channels with 3×3 taps, fc1 64→32, fc2 32→10) and of
// SentLSTM (embed 6, hidden 12, 48 gate columns, batch 50), and reports
// each as GFLOP/s (2·m·k·n flops per call) under the platform backend.
func BenchmarkGemmShapes(b *testing.B) {
	cases := []struct {
		name string
		c    gemmCase
	}{
		{"cnn/conv1-fwd", gemmCase{form: "nn", m: 8, k: 27, n: 50 * 64}},
		{"cnn/conv1-dW", gemmCase{form: "seg", m: 8, k: 50 * 64, n: 27, seg: 64}},
		{"cnn/conv2-fwd", gemmCase{form: "nn", m: 16, k: 72, n: 50 * 16}},
		{"cnn/conv2-dW", gemmCase{form: "seg", m: 16, k: 50 * 16, n: 72, seg: 16}},
		{"cnn/conv2-WTdy", gemmCase{form: "ta", m: 72, k: 16, n: 50 * 16}},
		{"cnn/fc1-fwd", gemmCase{form: "nn", m: 50, k: 64, n: 32}},
		{"cnn/fc1-dW", gemmCase{form: "ta", m: 64, k: 50, n: 32, acc: true}},
		{"cnn/fc1-dx", gemmCase{form: "tb", m: 50, k: 32, n: 64}},
		{"cnn/fc2-fwd", gemmCase{form: "nn", m: 50, k: 32, n: 10}},
		{"cnn/fc2-dW", gemmCase{form: "ta", m: 32, k: 50, n: 10, acc: true}},
		{"cnn/fc2-dx", gemmCase{form: "tb", m: 50, k: 10, n: 32}},
		{"lstm/x-fwd", gemmCase{form: "nn", m: 50, k: 6, n: 48}},
		{"lstm/h-fwd", gemmCase{form: "nn", m: 50, k: 12, n: 48, acc: true}},
		{"lstm/x-dW", gemmCase{form: "ta", m: 6, k: 50, n: 48, acc: true}},
		{"lstm/h-dW", gemmCase{form: "ta", m: 12, k: 50, n: 48, acc: true}},
		{"lstm/x-dx", gemmCase{form: "tb", m: 50, k: 48, n: 6}},
		{"lstm/h-dx", gemmCase{form: "tb", m: 50, k: 48, n: 12}},
	}
	be := CurrentBackend()
	rng := NewRNG(3)
	for _, tc := range cases {
		c := tc.c
		a := rng.Uniform(-1, 1, c.m*c.k).Data
		bm := rng.Uniform(-1, 1, c.k*c.n).Data
		dst := rng.Uniform(-1, 1, c.m*c.n).Data
		b.Run(fmt.Sprintf("%s/%dx%dx%d", tc.name, c.m, c.k, c.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch c.form {
				case "seg":
					be.GemmTransBSegAcc(dst, a, bm, c.m, c.k, c.n, c.seg)
				default:
					be.Gemm(dst, a, bm, c.m, c.k, c.n, c.form == "ta", c.form == "tb", c.acc)
				}
			}
			flops := 2 * float64(c.m) * float64(c.k) * float64(c.n) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
