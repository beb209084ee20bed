package core

import (
	"math"
	"reflect"
	"testing"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func krumUploads(rng *tensor.RNG, k, n int) []nn.ParamVector {
	ups := make([]nn.ParamVector, k)
	for i := range ups {
		v := make(nn.ParamVector, n)
		for j := range v {
			v[j] = rng.Normal(0, 1)
		}
		ups[i] = v
	}
	return ups
}

// TestKrumSelectsHonestModel: with f outliers far from a tight honest
// cluster, Krum returns one of the honest uploads.
func TestKrumSelectsHonestModel(t *testing.T) {
	rng := tensor.NewRNG(1)
	const k, f, n = 9, 3, 40
	center := krumUploads(rng, 1, n)[0]
	ups := make([]nn.ParamVector, k)
	for i := range ups {
		v := make(nn.ParamVector, n)
		for j := range v {
			if i < f {
				v[j] = 500 + rng.Normal(0, 1) // far colluding-ish outliers
			} else {
				v[j] = center[j] + rng.Normal(0, 0.05)
			}
		}
		ups[i] = v
	}
	r := &KrumReducer{F: f}
	out, err := fl.ReduceUploads(r, ups, nil, fl.Workers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("output length %d", len(out))
	}
	if d := math.Sqrt(out.DistanceSq(center)); d > 1 {
		t.Fatalf("krum picked a vector %v away from the honest cluster", d)
	}
	// The winner is an exact copy of one honest upload, not a blend.
	match := false
	for _, u := range ups[f:] {
		if reflect.DeepEqual(out, u) {
			match = true
			break
		}
	}
	if !match {
		t.Fatal("classic krum must return one of the honest uploads verbatim")
	}
	// And it must be a fresh vector, never an alias into the inputs.
	for _, u := range ups {
		if len(u) > 0 && len(out) > 0 && &u[0] == &out[0] {
			t.Fatal("krum must clone the winner, not alias it")
		}
	}
}

// TestMultiKrumAveragesSelection: Multi-Krum with M honest-sized
// selection recovers (approximately) the honest centroid and beats the
// mean under the same attack.
func TestMultiKrumAveragesSelection(t *testing.T) {
	rng := tensor.NewRNG(2)
	const k, f, n = 11, 4, 32
	centroid := make(nn.ParamVector, n)
	ups := make([]nn.ParamVector, k)
	for i := range ups {
		v := make(nn.ParamVector, n)
		for j := range v {
			if i < f {
				v[j] = -300
			} else {
				v[j] = 1 + rng.Normal(0, 0.02)
			}
		}
		ups[i] = v
	}
	for j := range centroid {
		centroid[j] = 1
	}
	robust, err := fl.ReduceUploads(&KrumReducer{F: f, Multi: true}, ups, nil, fl.Workers{})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := fl.ReduceUploads(nil, ups, nil, fl.Workers{})
	if err != nil {
		t.Fatal(err)
	}
	dR := math.Sqrt(robust.DistanceSq(centroid))
	dM := math.Sqrt(mean.DistanceSq(centroid))
	if dR > 0.5 {
		t.Fatalf("multikrum distance to honest centroid %v", dR)
	}
	if dM < 100*dR {
		t.Fatalf("mean should be far off under attack: mean %v vs multikrum %v", dM, dR)
	}
}

// TestKrumWorkerCountInvariance: the distance matrix fans out, so the
// result must be bit-identical at every worker cap.
func TestKrumWorkerCountInvariance(t *testing.T) {
	rng := tensor.NewRNG(3)
	ups := krumUploads(rng, 10, 600)
	ws := make([]float64, len(ups))
	for i := range ws {
		ws[i] = float64(1 + i)
	}
	for _, multi := range []bool{false, true} {
		serial := &KrumReducer{Multi: multi, W: fl.Limit(1)}
		wide := &KrumReducer{Multi: multi, W: fl.Limit(8)}
		a, err := fl.ReduceUploads(serial, ups, ws, fl.Workers{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := fl.ReduceUploads(wide, ups, ws, fl.Workers{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("multi=%v: workers=1 vs 8 differ", multi)
		}
	}
}

// TestKrumSmallCohorts: below 3 uploads Krum degrades to the mean
// instead of panicking (NewSimMatrix requires k ≥ 2, the window k−f−2
// requires k ≥ 3).
func TestKrumSmallCohorts(t *testing.T) {
	rng := tensor.NewRNG(4)
	for k := 1; k <= 2; k++ {
		ups := krumUploads(rng, k, 8)
		got, err := fl.ReduceUploads(&KrumReducer{}, ups, nil, fl.Workers{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fl.ReduceUploads(nil, ups, nil, fl.Workers{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: krum fallback must equal the mean", k)
		}
	}
}

func TestCoreReducerByName(t *testing.T) {
	for name, want := range map[string]string{
		"krum":          "krum",
		"krum:2":        "krum:2",
		"multikrum":     "multikrum",
		"multikrum:5":   "multikrum:5",
		"multikrum:2:6": "multikrum:2:6",
		"mean":          "mean",
		"median":        "median",
		"trimmed:0.3":   "trimmed:0.30",
	} {
		r, err := ReducerByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if r.Name() != want {
			t.Fatalf("%q resolved to %q, want %q", name, r.Name(), want)
		}
	}
	for _, bad := range []string{"krum:x", "krum:-1", "krum:1:2", "multikrum:1:2:3", "multikrum:y", "bogus"} {
		if _, err := ReducerByName(bad); err == nil {
			t.Fatalf("%q should not resolve", bad)
		}
	}
}

// FuzzKrum: arbitrary cohort sizes, dimensions and bit patterns must
// never panic, and successful reductions match the model dimension.
func FuzzKrum(f *testing.F) {
	f.Add(uint8(5), uint8(10), int64(1), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(1), int64(2), uint8(1), uint8(2))
	f.Add(uint8(16), uint8(64), int64(3), uint8(4), uint8(9))
	f.Fuzz(func(t *testing.T, kRaw, nRaw uint8, seed int64, fRaw, mRaw uint8) {
		k := 1 + int(kRaw)%16
		n := 1 + int(nRaw)%96
		rng := tensor.NewRNG(seed)
		ups := krumUploads(rng, k, n)
		if seed%3 == 0 && k > 1 {
			ups[0][0] = math.NaN() // exercise the non-finite screen
		}
		for _, r := range []fl.Reducer{
			&KrumReducer{F: int(fRaw) % 8},
			&KrumReducer{Multi: true, F: int(fRaw) % 8, M: int(mRaw) % 8},
		} {
			out, err := fl.ReduceUploads(r, ups, nil, fl.Workers{})
			if err != nil {
				continue
			}
			if len(out) != n {
				t.Fatalf("%s: output length %d, want %d", r.Name(), len(out), n)
			}
			for _, x := range out {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s: non-finite aggregate", r.Name())
				}
			}
		}
	})
}
