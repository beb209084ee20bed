package baselines

import (
	"fmt"
	"io"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Round-granular checkpoint state for the five baselines, implementing
// fl.RoundCheckpointer. Each algorithm serializes exactly the state that
// survives across rounds — the global model, any per-client server
// memory, and the algorithm RNG's (seed, position) snapshot — so a
// resumed run replays the remaining rounds bit-identically. Per-round
// scratch (decode buffers, job lists, FedGen's client-side generator
// twin) is rebuilt from that state and deliberately absent.

// rngCap bounds an algorithm stream's snapshotted position for ReadRNG:
// init draw calls at Init plus at most perRound in each configured round.
// FedAvg, FedProx, SCAFFOLD and CluSamp split one training stream per
// activated client (at most ClientsPerRound) and split once at Init.
func rngCap(cfg fl.Config, init, perRound int) uint64 {
	return tensor.DrawCap(uint64(init) + uint64(cfg.Rounds)*uint64(perRound))
}

// SaveState implements fl.RoundCheckpointer.
func (a *FedAvg) SaveState(w io.Writer) error {
	if err := nn.WriteVector(w, a.global); err != nil {
		return err
	}
	return nn.WriteRNG(w, a.rng)
}

// LoadState implements fl.RoundCheckpointer.
func (a *FedAvg) LoadState(r io.Reader) error {
	global, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: fedavg state: %w", err)
	}
	rng, err := nn.ReadRNG(r, rngCap(a.cfg, 1, a.cfg.ClientsPerRound))
	if err != nil {
		return fmt.Errorf("baselines: fedavg state: %w", err)
	}
	a.global, a.rng = global, rng
	return nil
}

// SaveState implements fl.RoundCheckpointer.
func (a *FedProx) SaveState(w io.Writer) error {
	if err := nn.WriteVector(w, a.global); err != nil {
		return err
	}
	return nn.WriteRNG(w, a.rng)
}

// LoadState implements fl.RoundCheckpointer.
func (a *FedProx) LoadState(r io.Reader) error {
	global, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: fedprox state: %w", err)
	}
	rng, err := nn.ReadRNG(r, rngCap(a.cfg, 1, a.cfg.ClientsPerRound))
	if err != nil {
		return fmt.Errorf("baselines: fedprox state: %w", err)
	}
	a.global, a.rng = global, rng
	return nil
}

// SaveState implements fl.RoundCheckpointer: the model, both control
// variates (server c and the per-client cᵢ map), and the RNG.
func (a *SCAFFOLD) SaveState(w io.Writer) error {
	if err := nn.WriteVector(w, a.global); err != nil {
		return err
	}
	if err := nn.WriteVector(w, a.c); err != nil {
		return err
	}
	if err := nn.WriteVectorMap(w, a.ci); err != nil {
		return err
	}
	return nn.WriteRNG(w, a.rng)
}

// LoadState implements fl.RoundCheckpointer.
func (a *SCAFFOLD) LoadState(r io.Reader) error {
	global, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: scaffold state: %w", err)
	}
	c, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: scaffold state: %w", err)
	}
	ci, err := nn.ReadVectorMap(r)
	if err != nil {
		return fmt.Errorf("baselines: scaffold state: %w", err)
	}
	rng, err := nn.ReadRNG(r, rngCap(a.cfg, 1, a.cfg.ClientsPerRound))
	if err != nil {
		return fmt.Errorf("baselines: scaffold state: %w", err)
	}
	a.global, a.c, a.ci, a.rng = global, c, ci, rng
	return nil
}

// SaveState implements fl.RoundCheckpointer: the model, the gradient
// memory driving cluster selection, and the RNG.
func (a *CluSamp) SaveState(w io.Writer) error {
	if err := nn.WriteVector(w, a.global); err != nil {
		return err
	}
	if err := nn.WriteVectorMap(w, a.updates); err != nil {
		return err
	}
	return nn.WriteRNG(w, a.rng)
}

// LoadState implements fl.RoundCheckpointer.
func (a *CluSamp) LoadState(r io.Reader) error {
	global, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: clusamp state: %w", err)
	}
	updates, err := nn.ReadVectorMap(r)
	if err != nil {
		return fmt.Errorf("baselines: clusamp state: %w", err)
	}
	rng, err := nn.ReadRNG(r, rngCap(a.cfg, 1, a.cfg.ClientsPerRound))
	if err != nil {
		return fmt.Errorf("baselines: clusamp state: %w", err)
	}
	a.global, a.updates, a.rng = global, updates, rng
	return nil
}

// SaveState implements fl.RoundCheckpointer: the model, the server-side
// generator's parameters, its optimizer momentum, and the RNG. The
// client-side twin is per-round scratch — the next round's broadcast
// overwrites it before any use.
func (a *FedGen) SaveState(w io.Writer) error {
	if err := nn.WriteVector(w, a.global); err != nil {
		return err
	}
	if err := nn.WriteVector(w, nn.FlattenParams(a.gen.Params())); err != nil {
		return err
	}
	if err := a.genOpt.SaveState(w); err != nil {
		return err
	}
	return nn.WriteRNG(w, a.rng)
}

// LoadState implements fl.RoundCheckpointer. Init has already built the
// generator networks with the correct architecture (it runs before any
// resume), so the saved parameters load into the existing layers.
func (a *FedGen) LoadState(r io.Reader) error {
	global, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: fedgen state: %w", err)
	}
	genVec, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: fedgen state: %w", err)
	}
	if err := nn.LoadParams(a.gen.Params(), genVec); err != nil {
		return fmt.Errorf("baselines: fedgen state: generator params: %w", err)
	}
	if err := a.genOpt.LoadState(r); err != nil {
		return fmt.Errorf("baselines: fedgen state: optimizer: %w", err)
	}
	rng, err := nn.ReadRNG(r, rngCap(a.cfg, 3, a.drawsPerRound()))
	if err != nil {
		return fmt.Errorf("baselines: fedgen state: %w", err)
	}
	a.global, a.rng = global, rng
	return nil
}
