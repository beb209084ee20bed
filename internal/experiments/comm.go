package experiments

import (
	"fmt"
	"io"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// CommCurveOptions configures the communication-vs-accuracy sweep: the
// same algorithm run once per wire codec on identical environments, so
// the only difference between curves is what the transport does to the
// payloads.
type CommCurveOptions struct {
	Profile Profile
	// Dataset / Model / Het choose the environment (defaults: vision10,
	// cnn, Dir(0.5)).
	Dataset, Model string
	Het            data.Heterogeneity
	// Algorithm is the method under test (default "fedcross").
	Algorithm string
	// Codecs are the wire codecs to sweep (default: identity, fp16, int8,
	// topk).
	Codecs []string
	// Network and DeadlineSec configure the link model shared by every
	// run (default: the ideal network, no deadline).
	Network     string
	DeadlineSec float64
}

// DefaultCommCurveOptions returns the standard sweep.
func DefaultCommCurveOptions() CommCurveOptions {
	return CommCurveOptions{
		Dataset:   "vision10",
		Model:     "cnn",
		Het:       data.Heterogeneity{Beta: 0.5},
		Algorithm: "fedcross",
		Codecs:    []string{"identity", "fp16", "int8", "topk"},
	}
}

// CommPoint is one evaluated round of one codec's run.
type CommPoint struct {
	Round int
	// CumMB is the cumulative two-way wire traffic in megabytes.
	CumMB float64
	// Acc is the global model's test accuracy at that point.
	Acc float64
}

// CommCurve is one codec's accuracy-vs-traffic trajectory.
type CommCurve struct {
	Codec string
	// Points are the evaluated rounds in order.
	Points []CommPoint
	// FinalAcc / BestAcc summarise the run.
	FinalAcc, BestAcc float64
	// TotalMB is the whole-run two-way traffic in megabytes.
	TotalMB float64
	// Stragglers counts deadline-missed uploads over the run.
	Stragglers int
}

// CommCurveResult holds the full sweep.
type CommCurveResult struct {
	Title  string
	Curves []CommCurve
}

// RunCommCurve executes the sweep: one run per codec, identical seeds and
// environments, accuracy plotted against measured bytes on the wire. It
// is the harness behind the question the paper's Table I only answers
// analytically — what accuracy does a method buy per megabyte moved?
func RunCommCurve(opts CommCurveOptions) (*CommCurveResult, error) {
	if opts.Dataset == "" {
		opts.Dataset = "vision10"
	}
	if opts.Model == "" {
		opts.Model = "cnn"
	}
	if opts.Algorithm == "" {
		opts.Algorithm = "fedcross"
	}
	if len(opts.Codecs) == 0 {
		opts.Codecs = []string{"identity", "fp16", "int8", "topk"}
	}
	seed := int64(1)
	if len(opts.Profile.Seeds) > 0 {
		seed = opts.Profile.Seeds[0]
	}
	res := &CommCurveResult{
		Title: fmt.Sprintf("Comm-vs-accuracy — %s on %s/%s, net=%s",
			opts.Algorithm, opts.Dataset, opts.Model, netName(opts.Network)),
		Curves: make([]CommCurve, len(opts.Codecs)),
	}
	// One scheduled cell per codec: every run shares the single
	// environment build (identical key) and the global worker budget.
	s := newScheduler(opts.Profile)
	err := s.Run(len(opts.Codecs), func(i int) error {
		codec := opts.Codecs[i]
		env, err := s.Env(opts.Profile, opts.Dataset, opts.Model, opts.Het, seed)
		if err != nil {
			return err
		}
		algo, err := NewAlgorithm(opts.Algorithm)
		if err != nil {
			return err
		}
		cfg := s.Config(opts.Profile, seed)
		cfg.Transport = fl.TransportOptions{
			Codec:       codec,
			Network:     opts.Network,
			DeadlineSec: opts.DeadlineSec,
		}
		hist, err := fl.Run(algo, env, cfg)
		if err != nil {
			return fmt.Errorf("experiments: comm curve codec %s: %w", codec, err)
		}
		curve := CommCurve{
			Codec:      codec,
			FinalAcc:   hist.Final().TestAcc,
			BestAcc:    hist.BestAcc(),
			TotalMB:    float64(hist.TotalBytes()) / (1 << 20),
			Stragglers: hist.Stragglers,
		}
		for _, m := range hist.Metrics {
			curve.Points = append(curve.Points, CommPoint{
				Round: m.Round,
				CumMB: float64(m.Cum.BytesDown+m.Cum.BytesUp) / (1 << 20),
				Acc:   m.TestAcc,
			})
		}
		res.Curves[i] = curve
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func netName(name string) string {
	if name == "" {
		return "none"
	}
	return name
}

// Render writes the per-codec summary table followed by each curve's
// traffic-vs-accuracy trajectory.
func (r *CommCurveResult) Render(w io.Writer) error {
	t := Table{
		Title:  r.Title,
		Header: []string{"Codec", "Final acc", "Best acc", "MB on wire", "Stragglers"},
	}
	for _, c := range r.Curves {
		t.Add(c.Codec,
			fmt.Sprintf("%.4f", c.FinalAcc),
			fmt.Sprintf("%.4f", c.BestAcc),
			fmt.Sprintf("%.2f", c.TotalMB),
			fmt.Sprintf("%d", c.Stragglers))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	for _, c := range r.Curves {
		ct := Table{
			Title:  fmt.Sprintf("\n%s trajectory", c.Codec),
			Header: []string{"Round", "Cum MB", "Acc"},
		}
		for _, p := range c.Points {
			ct.Add(fmt.Sprintf("%d", p.Round), fmt.Sprintf("%.2f", p.CumMB), fmt.Sprintf("%.4f", p.Acc))
		}
		if _, err := ct.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
