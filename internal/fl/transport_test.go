package fl

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// upOne sends a single upload through UpAll.
func upOne(tr *Transport, dst nn.ParamVector, client int, vec, ref nn.ParamVector) (nn.ParamVector, bool) {
	ups := []Upload{{Client: client, Vec: vec, Ref: ref, Dst: dst}}
	tr.UpAll(ups, Limit(1))
	return ups[0].Out, ups[0].OK
}

func testVec(rng *tensor.RNG, n int) nn.ParamVector {
	v := make(nn.ParamVector, n)
	for i := range v {
		v[i] = rng.Normal(0, 1)
	}
	return v
}

// TestTransportNilPassThrough pins the nil-receiver contract every
// algorithm relies on when driven outside fl.Run.
func TestTransportNilPassThrough(t *testing.T) {
	var tr *Transport
	vec := nn.ParamVector{1, 2, 3}
	if got := tr.Down(nil, 0, vec); &got[0] != &vec[0] {
		t.Fatal("nil transport Down must return the input vector")
	}
	if got, ok := upOne(tr, nil, 0, vec, nil); !ok || &got[0] != &vec[0] {
		t.Fatal("nil transport UpAll must pass through on time")
	}
	if got := tr.Broadcast(nil, []int{0, 1}, vec); &got[0] != &vec[0] {
		t.Fatal("nil transport Broadcast must return the input vector")
	}
	tr.BeginRound(0, []int{0, 1}, nil)
	if c := tr.EndRound(); c != (Counters{}) {
		t.Fatalf("nil transport accounted %+v", c)
	}
	if !tr.PassThrough() {
		t.Fatal("nil transport must report PassThrough")
	}
}

// TestTransportIdentityZeroCopy pins the reference wire: identity codec
// returns the input slices untouched (no decode copy) while still
// charging byte-accurate traffic.
func TestTransportIdentityZeroCopy(t *testing.T) {
	tr, err := NewTransport(TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	vec := testVec(rng, 100)
	tr.BeginRound(0, []int{3, 7, -1}, rng.Split())

	if got := tr.Down(nil, 3, vec); &got[0] != &vec[0] {
		t.Fatal("identity Down must be zero-copy")
	}
	if got := tr.Broadcast(nil, []int{3, 7, -1}, vec); &got[0] != &vec[0] {
		t.Fatal("identity Broadcast must be zero-copy")
	}
	if got, ok := upOne(tr, nil, 7, vec, vec); !ok || &got[0] != &vec[0] {
		t.Fatal("identity UpAll must be zero-copy and on time")
	}

	perPayload := (nn.IdentityCodec{}).EncodedSize(100)
	c := tr.EndRound()
	down, up, stragglers := c.BytesDown, c.BytesUp, c.Stragglers
	if want := 3 * perPayload; down != want { // 1 Down + 2 Broadcast recipients
		t.Fatalf("down bytes %d, want %d", down, want)
	}
	if up != perPayload {
		t.Fatalf("up bytes %d, want %d", up, perPayload)
	}
	if stragglers != 0 {
		t.Fatalf("stragglers %d, want 0", stragglers)
	}
	if tot := tr.Totals(); tot.BytesDown != down || tot.BytesUp != up {
		t.Fatalf("totals %d/%d, want %d/%d", tot.BytesDown, tot.BytesUp, down, up)
	}
}

// TestTransportLossyDelta pins the delta path: an int8 upload encoded
// against a reference decodes within the quantization bound of the
// *residual* range — far tighter than quantizing the raw vector — and
// dropped top-k coordinates stay at the reference instead of zero.
func TestTransportLossyDelta(t *testing.T) {
	rng := tensor.NewRNG(2)
	ref := testVec(rng, 512)
	vec := ref.Clone()
	// Perturb a little: the residual range is ~1e-2 while the value range is ~1.
	resLo, resHi := math.Inf(1), math.Inf(-1)
	for i := range vec {
		d := 0.01 * rng.Normal(0, 1)
		vec[i] += d
		resLo = math.Min(resLo, d)
		resHi = math.Max(resHi, d)
	}

	tr, err := NewTransport(TransportOptions{Codec: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginRound(0, []int{0}, nil)
	dst := make(nn.ParamVector, len(vec))
	got, ok := upOne(tr, dst, 0, vec, ref)
	if !ok {
		t.Fatal("upload missed a deadline that does not exist")
	}
	bound := (resHi - resLo) / 510 * (1 + 1e-9)
	for i := range vec {
		if math.Abs(got[i]-vec[i]) > bound {
			t.Fatalf("delta int8: element %d error %v > residual bound %v", i, math.Abs(got[i]-vec[i]), bound)
		}
	}

	// topk delta: unsent coordinates must equal the reference bit-exactly.
	tr2, err := NewTransport(TransportOptions{Codec: "topk:0.1"})
	if err != nil {
		t.Fatal(err)
	}
	tr2.BeginRound(0, []int{0}, nil)
	got2, _ := upOne(tr2, make(nn.ParamVector, len(vec)), 0, vec, ref)
	unchanged := 0
	for i := range got2 {
		if got2[i] == ref[i] {
			unchanged++
		}
	}
	if want := len(vec) - (nn.TopKCodec{Frac: 0.1}).Keep(len(vec)); unchanged < want {
		t.Fatalf("topk delta: %d coordinates at the reference, want at least %d", unchanged, want)
	}
}

// TestTransportDeadlineStragglers pins straggler semantics: with a slow
// link and a tight deadline, uploads past the budget report ok=false,
// each straggler is counted exactly once, later uploads from the same
// client are skipped, and the selection is a deterministic function of
// the seed.
func TestTransportDeadlineStragglers(t *testing.T) {
	rng := tensor.NewRNG(9)
	vec := testVec(rng, 25_000) // 200 KB identity payload
	clients := []int{0, 1, 2, 3, 4, 5, 6, 7}

	run := func(seed int64) (missed []int, stragglers int) {
		tr, err := NewTransport(TransportOptions{Network: "edge", DeadlineSec: 5})
		if err != nil {
			t.Fatal(err)
		}
		tr.BeginRound(0, clients, tensor.NewRNG(seed))
		tr.Broadcast(nil, clients, vec)
		for _, ci := range clients {
			if _, ok := upOne(tr, nil, ci, vec, nil); !ok {
				missed = append(missed, ci)
				// A second upload from a straggler must also fail, without
				// double-counting.
				if _, ok := upOne(tr, nil, ci, vec, nil); ok {
					t.Fatalf("client %d: upload after straggling succeeded", ci)
				}
			}
		}
		return missed, tr.EndRound().Stragglers
	}

	missedA, stragglersA := run(42)
	missedB, stragglersB := run(42)
	if !reflect.DeepEqual(missedA, missedB) {
		t.Fatalf("straggler selection not deterministic: %v vs %v", missedA, missedB)
	}
	if stragglersA != len(missedA) || stragglersA != stragglersB {
		t.Fatalf("straggler count %d/%d, want %d (each once)", stragglersA, stragglersB, len(missedA))
	}
	// 200 KB down (0.8 s at median edge rates) plus 200 KB up (3.2 s)
	// against a 5 s deadline: the jittered fleet must split — some make
	// it, some miss — or the scenario tests nothing.
	if len(missedA) == 0 || len(missedA) == len(clients) {
		t.Fatalf("degenerate straggler scenario: %d of %d missed", len(missedA), len(clients))
	}

	// A different seed should eventually produce a different fleet; scan a
	// few to avoid flakiness.
	different := false
	for seed := int64(43); seed < 53; seed++ {
		if m, _ := run(seed); !reflect.DeepEqual(m, missedA) {
			different = true
			break
		}
	}
	if !different {
		t.Fatal("straggler selection ignores the network RNG stream")
	}
}

// TestTransportIdealNetworkNeverStraggles pins that deadlines only bite
// when the link model charges time.
func TestTransportIdealNetworkNeverStraggles(t *testing.T) {
	tr, err := NewTransport(TransportOptions{DeadlineSec: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	vec := testVec(rng, 10_000)
	tr.BeginRound(0, []int{0}, rng.Split())
	for i := 0; i < 100; i++ {
		if _, ok := upOne(tr, nil, 0, vec, nil); !ok {
			t.Fatal("ideal network produced a straggler")
		}
	}
}

// TestNetworkByName pins the preset table and its error path.
func TestNetworkByName(t *testing.T) {
	for _, name := range []string{"", "none", "fiber", "wifi", "lte", "edge"} {
		m, err := NetworkByName(name)
		if err != nil {
			t.Fatalf("NetworkByName(%q): %v", name, err)
		}
		if name == "" || name == "none" {
			if !m.Ideal() {
				t.Fatalf("%q must be ideal", name)
			}
		} else if m.Ideal() || m.Name != name {
			t.Fatalf("%q resolved to %+v", name, m)
		}
	}
	if _, err := NetworkByName("starlink"); err == nil {
		t.Fatal("unknown network accepted")
	}
	if err := (TransportOptions{Codec: "zip"}).Validate(); err == nil {
		t.Fatal("bad codec accepted")
	}
	if err := (TransportOptions{DeadlineSec: -1}).Validate(); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

// serialUp is the reference upload: the one-at-a-time body UpAll
// replaced, which decides and delivers each attempt in turn on the
// transport's serial scratch. TestUpAllMatchesSerialOracle checks that
// planning a batch serially and delivering it in parallel changes
// nothing it returns or counts.
func serialUp(t *Transport, dst nn.ParamVector, client int, vec, ref nn.ParamVector) (nn.ParamVector, bool) {
	if t == nil {
		return vec, true
	}
	if l := t.links[client]; l != nil && (l.straggler || l.failed) {
		return vec, false
	}
	vec = t.adv.CorruptUpload(client, vec)
	size := t.codec.EncodedSize(len(vec))
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			t.backoff(client, attempt)
			t.round.Retries++
		}
		t.round.BytesUp += size
		if !t.chargeTime(client, size, false) {
			t.markStraggler(client)
			return vec, false
		}
		lost := t.faults.Drops(t.r, client, attempt)
		m := mangleNone
		if !lost {
			switch {
			case t.faults.Truncates(t.r, client, attempt):
				m = mangleTruncate
			case t.faults.Corrupts(t.r, client, attempt):
				m = mangleCorrupt
			}
			if m != mangleNone && t.codec.Lossless() {
				lost = true
			}
		}
		if !lost {
			out, err := t.deliver(t.scratch[0], dst, vec, ref, m)
			if err == nil {
				if t.faults.Duplicates(t.r, client) {
					t.round.BytesUp += size
					t.chargeTime(client, size, false)
					t.round.Duplicates++
				}
				if l := t.links[client]; l != nil {
					l.okUps++
				}
				return out, true
			}
		}
		if attempt >= t.retries {
			t.markFailed(client)
			return vec, false
		}
	}
}

// oracleCase is one wire configuration of TestUpAllMatchesSerialOracle.
type oracleCase struct {
	codec, network string
	deadline       float64
	faults         FaultOptions
	attack         string
}

// oracleUploads builds round r's batch over the selected clients: every
// third client uploads a SCAFFOLD-style pair (model against the
// broadcast, then a variate against its own stored reference), the rest
// one model. Entries decode in place, into a nil Dst, or without a delta
// reference, so every Upload shape is covered. Each call returns fresh
// vectors with the same values, so the two sides of the comparison never
// share a buffer.
func oracleUploads(r int, selected []int, recv nn.ParamVector, n int) (ups []Upload, pairs []int) {
	rng := tensor.NewRNG(int64(1000 + r))
	for k, ci := range selected {
		vec := recv.Clone()
		for i := range vec {
			vec[i] += 0.05 * rng.Normal(0, 1)
		}
		u := Upload{Client: ci, Vec: vec, Ref: recv, Dst: vec}
		switch k % 5 {
		case 3:
			u.Dst = nil
		case 4:
			u.Ref = nil
		}
		ups = append(ups, u)
		if k%3 == 0 {
			pairs = append(pairs, len(ups)-1)
			variate := testVec(rng, n)
			stored := testVec(rng, n)
			ups = append(ups, Upload{Client: ci, Vec: variate, Ref: stored, Dst: variate})
		}
	}
	return ups, pairs
}

// TestUpAllMatchesSerialOracle pins UpAll to the serial reference across
// codecs, fault mixes, adversaries, networks and worker counts: decoded
// vectors are bit-equal, and ok flags, traffic, fault telemetry, the
// per-round quorum count and every client's link clock are equal. SCAFFOLD-style pairs follow the
// algorithm's old loop on the oracle side (a failed model upload skips
// the variate call), including pairs whose first entry straggles.
func TestUpAllMatchesSerialOracle(t *testing.T) {
	const (
		nClients = 20
		dim      = 1500
		rounds   = 3
	)
	mix := FaultOptions{DropRate: 0.2, TruncateRate: 0.15, CorruptRate: 0.15,
		DuplicateRate: 0.3, StraggleRate: 0.3}
	var cases []oracleCase
	for _, codec := range []string{"identity", "fp16", "int8", "topk:0.1"} {
		for _, faults := range []FaultOptions{{}, mix} {
			for _, attack := range []string{AttackNone, AttackSignFlip, AttackScale, AttackCollude} {
				cases = append(cases,
					oracleCase{codec: codec, network: "none", faults: faults, attack: attack},
					oracleCase{codec: codec, network: "lte", deadline: 0.3, faults: faults, attack: attack})
			}
		}
	}
	var stragglers, retries, faultDrops, duplicates, pairFirstStraggles int
	for _, c := range cases {
		// build makes one side's transport; both sides get identical
		// fault plans and attacker sets from the same seeds.
		build := func() *Transport {
			tr, err := NewTransport(TransportOptions{Codec: c.codec, Network: c.network,
				DeadlineSec: c.deadline, Retries: 2, RetryBackoffSec: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			tr.SetFaultPlan(NewFaultPlan(c.faults, 77))
			tr.SetAdversary(NewAdversary(AdversaryOptions{Attack: c.attack, Frac: 0.3}, nClients, tensor.NewRNG(5)))
			return tr
		}
		for _, workers := range []int{1, 2, 8} {
			oracle, batched := build(), build()
			global := testVec(tensor.NewRNG(3), dim)
			sel := tensor.NewRNG(11)
			for r := 0; r < rounds; r++ {
				selected := sel.Perm(nClients)[:12]
				netSeed := int64(100 + r)
				oracle.BeginRound(r, selected, tensor.NewRNG(netSeed))
				batched.BeginRound(r, selected, tensor.NewRNG(netSeed))
				recvO := oracle.Broadcast(nil, selected, global)
				recvB := batched.Broadcast(nil, selected, global)

				want, pairs := oracleUploads(r, selected, recvO, dim)
				isVariate := map[int]bool{}
				for _, p := range pairs {
					isVariate[p+1] = true
				}
				for i := range want {
					u := &want[i]
					if isVariate[i] && !want[i-1].OK {
						u.Out, u.OK = u.Vec, false // the algorithm skipped the call
						continue
					}
					u.Out, u.OK = serialUp(oracle, u.Dst, u.Client, u.Vec, u.Ref)
				}
				got, _ := oracleUploads(r, selected, recvB, dim)
				batched.UpAll(got, Limit(workers))

				name := fmt.Sprintf("%+v workers=%d round=%d", c, workers, r)
				for i := range want {
					if got[i].OK != want[i].OK {
						t.Fatalf("%s: entry %d ok=%v, oracle %v", name, i, got[i].OK, want[i].OK)
					}
					if !want[i].OK {
						continue
					}
					if !bitEqual(got[i].Out, want[i].Out) {
						t.Fatalf("%s: entry %d decoded vector differs from the oracle", name, i)
					}
				}
				for _, p := range pairs {
					if !want[p].OK && oracle.links[want[p].Client].straggler {
						pairFirstStraggles++
					}
				}
				if a, b := batched.RoundUploaders(), oracle.RoundUploaders(); a != b {
					t.Fatalf("%s: RoundUploaders %d, oracle %d", name, a, b)
				}
				for ci, l := range oracle.links {
					if got := batched.links[ci]; got == nil || *got != *l {
						t.Fatalf("%s: client %d link %+v, oracle %+v", name, ci, got, *l)
					}
				}
				batched.EndRound()
				oracle.EndRound()
				if got, want := batched.Totals(), oracle.Totals(); got != want {
					t.Fatalf("%s: Totals %+v, oracle %+v", name, got, want)
				}
			}
			tot := oracle.Totals()
			stragglers += tot.Stragglers
			retries += tot.Retries
			faultDrops += tot.FaultDrops
			duplicates += tot.Duplicates
		}
	}
	// The grid is only a check if every path it claims to cover fired.
	if stragglers == 0 || retries == 0 || faultDrops == 0 || duplicates == 0 || pairFirstStraggles == 0 {
		t.Fatalf("degenerate grid: stragglers %d, retries %d, fault drops %d, duplicates %d, pairs whose model straggled %d",
			stragglers, retries, faultDrops, duplicates, pairFirstStraggles)
	}
}

// bitEqual reports whether two vectors hold the same float64 bit
// patterns (NaN payloads included).
func bitEqual(a, b nn.ParamVector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
