package nn

import (
	"bytes"
	"runtime"
	"testing"

	"fedcross/internal/tensor"
)

// allocBytes returns the bytes fn allocates (cumulative, so frees do not
// hide a large transient allocation).
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadIntSliceBoundedAllocation feeds an 8-byte stream whose length
// prefix claims the cap of 2^22 entries (32 MiB of ints) and no
// elements: the read must fail at EOF having allocated no more than one
// read chunk, not the claimed length.
func TestReadIntSliceBoundedAllocation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteU64(&buf, maxStateEntries); err != nil {
		t.Fatal(err)
	}
	var err error
	got := allocBytes(func() { _, err = ReadIntSlice(bytes.NewReader(buf.Bytes())) })
	if err == nil {
		t.Fatal("truncated int slice read succeeded")
	}
	if got > 2*stateChunkBytes {
		t.Fatalf("truncated int slice allocated %d bytes, want at most %d", got, 2*stateChunkBytes)
	}

	// A well-formed slice still round-trips.
	buf.Reset()
	want := []int{3, -1, 0, 1 << 40}
	if err := WriteIntSlice(&buf, want); err != nil {
		t.Fatal(err)
	}
	xs, err := ReadIntSlice(&buf)
	if err != nil || len(xs) != len(want) {
		t.Fatalf("round trip: %v, %v", xs, err)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("round trip element %d: %d, want %d", i, xs[i], want[i])
		}
	}
}

// TestSGDLoadStateRejectsHostileShapes pins that a momentum tensor whose
// shape does not hold exactly its data — negative, overflowing or simply
// wrong — is an error, never a panic or a shape-sized allocation.
func TestSGDLoadStateRejectsHostileShapes(t *testing.T) {
	for _, shape := range [][]int{{-1, 2}, {0, -3}, {1 << 40, 1 << 40}, {2, 3}, {}} {
		var buf bytes.Buffer
		_ = WriteU64(&buf, 1)
		_ = WriteIntSlice(&buf, shape)
		_ = WriteVector(&buf, ParamVector{1, 2, 3, 4})
		var s SGD
		if err := s.LoadState(&buf); err == nil {
			t.Fatalf("shape %v accepted for 4 values", shape)
		}
	}
	var buf bytes.Buffer
	_ = WriteU64(&buf, 1)
	_ = WriteIntSlice(&buf, []int{2, 2})
	_ = WriteVector(&buf, ParamVector{1, 2, 3, 4})
	var s SGD
	if err := s.LoadState(&buf); err != nil {
		t.Fatalf("valid 2×2 state rejected: %v", err)
	}
}

// TestReadRNGRejectsPositionPastCap: a stream position beyond the
// caller's cap is an error found before any replay.
func TestReadRNGRejectsPositionPastCap(t *testing.T) {
	g := tensor.NewRNG(5)
	for i := 0; i < 10; i++ {
		g.Float64()
	}
	var buf bytes.Buffer
	if err := WriteRNG(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadRNG(bytes.NewReader(raw), 9); err == nil {
		t.Fatal("position 10 accepted under a cap of 9")
	}
	r, err := ReadRNG(bytes.NewReader(raw), 10)
	if err != nil || r.Int63() != g.Int63() {
		t.Fatalf("restore at the cap: %v", err)
	}
}
