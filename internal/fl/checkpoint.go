package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// CheckpointOptions configures round-granular crash recovery: after a
// round completes, the engine can snapshot everything the run's future
// depends on — model and per-algorithm state, the exact positions of
// every RNG stream, the metric history, cumulative wire telemetry — so a
// killed process resumes at the next round boundary and finishes with a
// final history byte-identical to the uninterrupted run. Snapshots are
// write-ahead: serialized to a temp file and renamed into place, so a
// crash mid-write leaves the previous snapshot intact. The shard cache is
// deliberately absent from the format — shards are pure functions of
// (seed, id), so a resumed run re-synthesizes what it needs.
type CheckpointOptions struct {
	// Path is the snapshot file. Required when any other field is set.
	Path string
	// Every writes a snapshot after every n completed rounds; 0 writes
	// none on a schedule (StopAfterRound may still write one).
	Every int
	// Resume loads Path before the first round and continues from the
	// recorded round instead of round 0. The file must exist and match
	// the run's engine, seed, algorithm, and shape.
	Resume bool
	// StopAfterRound, when positive, halts the run after that (1-based)
	// round completes, writing a snapshot regardless of Every and
	// returning the partial history alongside ErrStopped — the
	// kill-at-a-round-boundary simulation used by the resume tests.
	StopAfterRound int
}

// Active reports whether the run touches a checkpoint file at all.
func (o CheckpointOptions) Active() bool { return o.Path != "" }

// Validate reports the first problem with the options.
func (o CheckpointOptions) Validate() error {
	switch {
	case o.Every < 0:
		return fmt.Errorf("fl: Checkpoint.Every = %d, must be non-negative", o.Every)
	case o.StopAfterRound < 0:
		return fmt.Errorf("fl: Checkpoint.StopAfterRound = %d, must be non-negative", o.StopAfterRound)
	case o.Path == "" && (o.Every > 0 || o.Resume || o.StopAfterRound > 0):
		return fmt.Errorf("fl: Checkpoint.Path required when checkpointing is enabled")
	}
	return nil
}

// ErrStopped is returned (with the partial history) when a run halts at
// CheckpointOptions.StopAfterRound. It is a clean stop, not a failure.
var ErrStopped = errors.New("fl: run stopped at requested checkpoint round")

// RoundCheckpointer is implemented by algorithms that can snapshot and
// restore their full round-to-round state — models, control variates,
// optimizer buffers, and the position of the RNG stream Init handed them.
// All six built-in algorithms implement it; Run returns a clear error if
// checkpointing is requested for an algorithm that does not.
type RoundCheckpointer interface {
	// SaveState writes the algorithm's complete inter-round state.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState, overwriting
	// whatever Init produced.
	LoadState(r io.Reader) error
}

// The snapshot frame, shared by both engines (all words little-endian):
//
//	magic, version                  u64 each
//	engine tag                      u64 (tagRun or tagAsync)
//	seed                            i64
//	shape                           i64 × the engine's fixed count
//	Counters                        10 × i64
//	metric count, metrics           u64, 14 words each
//	engine section                  Run's runState or RunAsync's asyncState
//	CRC32 (IEEE) of all the above   u32
const (
	ckptMagic   = 0x4352_4C46 // "FLRC" little-endian
	ckptVersion = 2
	tagRun      = 0x636e_7973    // "sync"
	tagAsync    = 0x63_6e79_7361 // "async"

	maxCkptBlob    = 1 << 31
	maxCkptEntries = 1 << 22
	maxCkptVector  = 1 << 27
	maxCkptString  = 1 << 12
	metricWords    = 14
)

// enc builds a snapshot in memory. Appending to a slice cannot fail, so
// no call returns an error; the reader enforces every cap.
type enc struct{ b []byte }

func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *enc) i64(vs ...int64) {
	for _, v := range vs {
		e.u64(uint64(v))
	}
}

func (e *enc) f64(vs ...float64) {
	for _, v := range vs {
		e.u64(math.Float64bits(v))
	}
}

func (e *enc) rng(st tensor.RNGState) { e.i64(st.Seed); e.u64(st.Pos) }

func (e *enc) ints(xs []int) {
	e.u64(uint64(len(xs)))
	for _, x := range xs {
		e.i64(int64(x))
	}
}

// vec writes nn.WriteVector's layout: 0 for nil, else len+1 and the bits.
func (e *enc) vec(v nn.ParamVector) {
	if v == nil {
		e.u64(0)
		return
	}
	e.u64(uint64(len(v)) + 1)
	e.f64(v...)
}

func (e *enc) bytes(p []byte) { e.u64(uint64(len(p))); e.b = append(e.b, p...) }

func (e *enc) counters(c Counters) {
	e.i64(c.BytesDown, c.BytesUp, int64(c.Stragglers), int64(c.Retries), int64(c.FaultDrops),
		int64(c.Duplicates), int64(c.Stalls), int64(c.Crashes), int64(c.Unavailable), int64(c.Degraded))
}

// dec reads a snapshot held in memory. The first failure latches into
// err and every later read returns zero values, so a parser checks err
// once per section. Every length is checked against its cap and against
// the bytes actually left before anything is allocated, so no hostile
// count allocates more than the file itself holds.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes n items of size bytes each, or latches an error when
// fewer remain.
func (d *dec) take(n, size uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b))/size {
		d.fail("truncated")
		return nil
	}
	p := d.b[:n*size]
	d.b = d.b[n*size:]
	return p
}

func (d *dec) u64() uint64 {
	if p := d.take(1, 8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *dec) i64() int64           { return int64(d.u64()) }
func (d *dec) int() int             { return int(d.i64()) }
func (d *dec) f64() float64         { return math.Float64frombits(d.u64()) }
func (d *dec) rng() tensor.RNGState { return tensor.RNGState{Seed: d.i64(), Pos: d.u64()} }

// count reads a length prefix for items of size bytes each.
func (d *dec) count(max, size uint64, what string) int {
	n := d.u64()
	if d.err == nil && (n > max || n > uint64(len(d.b))/size) {
		d.fail("%s count %d exceeds cap %d or the %d bytes left", what, n, max, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *dec) ints(what string) []int {
	xs := make([]int, d.count(maxCkptEntries, 8, what))
	for i := range xs {
		xs[i] = d.int()
	}
	return xs
}

func (d *dec) vec(what string) nn.ParamVector {
	n := d.u64()
	if n == 0 || d.err != nil {
		return nil
	}
	if n-1 > maxCkptVector {
		d.fail("%s length %d exceeds cap %d", what, n-1, maxCkptVector)
	}
	p := d.take(n-1, 8)
	if p == nil {
		return nil
	}
	v := make(nn.ParamVector, n-1)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return v
}

func (d *dec) bytes(max uint64, what string) []byte {
	return d.take(uint64(d.count(max, 1, what)), 1)
}

func (d *dec) counters() Counters {
	return Counters{BytesDown: d.i64(), BytesUp: d.i64(), Stragglers: d.int(), Retries: d.int(),
		FaultDrops: d.int(), Duplicates: d.int(), Stalls: d.int(), Crashes: d.int(),
		Unavailable: d.int(), Degraded: d.int()}
}

// end reports the latched error, or one for bytes left after a section.
func (d *dec) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// encodeFrame appends a snapshot to dst[:0]: the shared header,
// counters and metrics, then the engine's section, then the CRC32
// trailer.
func encodeFrame(dst []byte, tag uint64, seed int64, shape []int64, cum Counters, metrics []RoundMetric, section func(*enc) error) ([]byte, error) {
	e := &enc{b: dst[:0]}
	e.u64(ckptMagic)
	e.u64(ckptVersion)
	e.u64(tag)
	e.i64(seed)
	e.i64(shape...)
	e.counters(cum)
	e.u64(uint64(len(metrics)))
	for _, m := range metrics {
		e.i64(int64(m.Round))
		e.counters(m.Cum)
		e.f64(m.TestAcc, m.TestLoss, m.CumModelEquivalents)
	}
	if err := section(e); err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b)), nil
}

// frame is a decoded snapshot's shared part; body is positioned at the
// engine's own section.
type frame struct {
	cum     Counters
	metrics []RoundMetric
	body    *dec
}

// decodeFrame opens a snapshot for the engine with the given tag, seed
// and shape. Magic and version come first, because they fix the layout;
// then the CRC32 trailer is checked over everything before it, so a
// damaged file fails here before any other field is parsed.
func decodeFrame(data []byte, tag uint64, seed int64, shape []int64) (*frame, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	d := &dec{b: data}
	if got := d.u64(); got != ckptMagic {
		return nil, fmt.Errorf("bad magic %#x (want %#x)", got, ckptMagic)
	}
	if got := d.u64(); got != ckptVersion {
		return nil, fmt.Errorf("bad version %d (want %d)", got, ckptVersion)
	}
	body := data[:len(data)-4]
	if got, want := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("checksum %#08x != stored %#08x: file is damaged", want, got)
	}
	d.b = body[16:]
	if got := d.u64(); d.err == nil && got != tag {
		return nil, fmt.Errorf("engine tag %#x, want %#x: snapshot is from another engine", got, tag)
	}
	if got := d.i64(); d.err == nil && got != seed {
		return nil, fmt.Errorf("checkpoint seed %d != run seed %d", got, seed)
	}
	got := make([]int64, len(shape))
	for i := range got {
		got[i] = d.i64()
	}
	if d.err == nil && !slices.Equal(got, shape) {
		return nil, fmt.Errorf("checkpoint shape %v != run %v", got, shape)
	}
	f := &frame{cum: d.counters(), body: d}
	f.metrics = make([]RoundMetric, d.count(maxCkptEntries, 8*metricWords, "metric"))
	for i := range f.metrics {
		m := &f.metrics[i]
		m.Round, m.Cum = d.int(), d.counters()
		m.TestAcc, m.TestLoss, m.CumModelEquivalents = d.f64(), d.f64(), d.f64()
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}

// atomicWriteFile serializes the snapshot write-ahead: the bytes land in
// a temp file in the destination directory, then rename into place, so a
// crash at any instant leaves either the old snapshot or the new one —
// never a torn file.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
