package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Checkpointing lets a FedCross deployment persist the middleware-model
// list between rounds. The paper notes that global-model generation "can
// be performed asynchronously at any time"; a checkpoint is exactly the
// state that makes that possible — an external process can load it and
// call GlobalModelGen without touching training.
//
// Wire format (little endian):
//
//	magic  uint32 = 0x46435253 ("FCRS")
//	k      uint32 — number of middleware models
//	n      uint64 — parameters per model
//	k × n  float64 bits

const checkpointMagic = 0x46435253

// Load hardening limits. The header is untrusted input: k and n must be
// validated (including their product) before any payload-sized allocation,
// or a 20-byte stream could demand a multi-GiB buffer.
const (
	// maxCheckpointModels caps the middleware-model count k.
	maxCheckpointModels = 1 << 16
	// maxCheckpointParams caps the per-model parameter count n.
	maxCheckpointParams = 1 << 27
	// maxCheckpointBytes caps the total declared payload k·n·8.
	maxCheckpointBytes = 1 << 31
	// loadChunkBytes bounds the read granularity so allocation grows with
	// bytes actually present on the stream.
	loadChunkBytes = 1 << 20
)

// Save serialises the middleware models to w. It enforces the same
// limits as Load, so every checkpoint Save emits is guaranteed to be
// restorable — oversized state fails at save time, not at restore time.
func (f *FedCross) Save(w io.Writer) error {
	if len(f.middleware) == 0 {
		return fmt.Errorf("core: Save: FedCross not initialised")
	}
	n := len(f.middleware[0])
	if k := len(f.middleware); k > maxCheckpointModels {
		return fmt.Errorf("core: Save: %d middleware models exceed the checkpoint limit %d", k, maxCheckpointModels)
	}
	if n == 0 || n > maxCheckpointParams {
		return fmt.Errorf("core: Save: %d params per model outside the checkpoint limit (1, %d]", n, maxCheckpointParams)
	}
	if int64(len(f.middleware))*int64(n)*8 > maxCheckpointBytes {
		return fmt.Errorf("core: Save: %d×%d params exceed the %d-byte checkpoint cap", len(f.middleware), n, int64(maxCheckpointBytes))
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(f.middleware)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("core: Save header: %w", err)
	}
	buf := make([]byte, 8*n)
	for i, m := range f.middleware {
		if len(m) != n {
			return fmt.Errorf("core: Save: middleware %d has %d params, want %d", i, len(m), n)
		}
		for j, v := range m {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("core: Save model %d: %w", i, err)
		}
	}
	return nil
}

// Load restores a middleware list written by Save, replacing any current
// state. The instance must have compatible options (Load does not check
// architecture compatibility — loading into a run with a different model
// factory will surface as a LoadParams error on the next round).
func (f *FedCross) Load(r io.Reader) error {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("core: Load header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != checkpointMagic {
		return fmt.Errorf("core: Load: bad magic %#x", got)
	}
	k := int(binary.LittleEndian.Uint32(hdr[4:]))
	nRaw := binary.LittleEndian.Uint64(hdr[8:])
	if k < 2 || k > maxCheckpointModels {
		return fmt.Errorf("core: Load: implausible middleware count %d", k)
	}
	if nRaw == 0 || nRaw > maxCheckpointParams {
		return fmt.Errorf("core: Load: implausible parameter count %d", nRaw)
	}
	n := int(nRaw)
	// k ≤ 2¹⁶ and n ≤ 2²⁷, so k·n·8 cannot overflow int64; cap the total.
	if int64(k)*int64(n)*8 > maxCheckpointBytes {
		return fmt.Errorf("core: Load: declared payload %d×%d params exceeds %d-byte cap", k, n, int64(maxCheckpointBytes))
	}
	mid := make([]nn.ParamVector, k)
	buf := make([]byte, min(8*n, loadChunkBytes))
	for i := range mid {
		// Decode in bounded chunks, growing the vector as bytes actually
		// arrive: a truncated or lying stream fails having allocated at
		// most one chunk beyond the data received.
		v := make(nn.ParamVector, 0, min(n, loadChunkBytes/8))
		for len(v) < n {
			want := 8 * (n - len(v))
			if want > len(buf) {
				want = len(buf)
			}
			if _, err := io.ReadFull(r, buf[:want]); err != nil {
				return fmt.Errorf("core: Load model %d: %w", i, err)
			}
			for off := 0; off < want; off += 8 {
				v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			}
		}
		mid[i] = v
	}
	f.middleware = mid
	return nil
}

// SaveState implements fl.RoundCheckpointer: the middleware list in the
// standalone checkpoint format, followed by the algorithm RNG's (seed,
// position) snapshot. The spare/upload/recv buffers are per-round
// scratch and rebuilt on the first resumed round.
func (f *FedCross) SaveState(w io.Writer) error {
	if err := f.Save(w); err != nil {
		return err
	}
	return nn.WriteRNG(w, f.rng)
}

// LoadState implements fl.RoundCheckpointer. Init has already run (it
// precedes any resume), so options and buffers are in place; Load
// replaces the middleware wholesale and the restored RNG resumes the
// shuffle/split stream at its checkpointed position.
func (f *FedCross) LoadState(r io.Reader) error {
	if err := f.Load(r); err != nil {
		return err
	}
	// One Split at Init; per round at most a Perm(k) of the middleware
	// assignment and one training-stream Split per activated client.
	rng, err := nn.ReadRNG(r, tensor.DrawCap(1+uint64(f.cfg.Rounds)*2*uint64(f.cfg.ClientsPerRound)))
	if err != nil {
		return fmt.Errorf("core: LoadState rng: %w", err)
	}
	f.rng = rng
	f.spare = nil
	return nil
}
