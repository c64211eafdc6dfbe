package experiments

import (
	"fmt"
	"math/cmplx"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/optim"
	"gnsslna/internal/plot"
	"gnsslna/internal/twoport"
	"gnsslna/internal/vna"
)

// FigModelFit renders the E3 figure: measured versus modeled |S21| and
// |S11| over frequency.
func (s *Suite) FigModelFit() (string, error) {
	ds, err := s.Dataset()
	if err != nil {
		return "", err
	}
	ex, err := s.Extracted()
	if err != nil {
		return "", err
	}
	set := ds.Hot[len(ds.Hot)/2]
	var fGHz, meas21, model21, meas11, model11 []float64
	for i, f := range set.Net.Freqs {
		got, err := ex.Device.SAt(set.Bias, f, ds.Z0)
		if err != nil {
			return "", err
		}
		fGHz = append(fGHz, f/1e9)
		meas21 = append(meas21, cmplx.Abs(set.Net.S[i][1][0]))
		model21 = append(model21, cmplx.Abs(got[1][0]))
		meas11 = append(meas11, cmplx.Abs(set.Net.S[i][0][0]))
		model11 = append(model11, cmplx.Abs(got[0][0]))
	}
	p := plot.Plot{
		Title:  fmt.Sprintf("Fig. E3 — measured vs extracted model at Vgs=%.2f V", set.Bias.Vgs),
		XLabel: "f [GHz]", YLabel: "|S|",
		Width: 68, Height: 18,
	}
	p.Add("|S21| measured", fGHz, meas21)
	p.Add("|S21| model", fGHz, model21)
	p.Add("|S11| measured", fGHz, meas11)
	p.Add("|S11| model", fGHz, model11)
	return p.Render(), nil
}

// FigPareto renders the E4 figure: the NF-vs-GT front traced by the
// improved goal-attainment method against an NSGA-II cloud.
func (s *Suite) FigPareto() (string, error) {
	obj, err := s.paretoObjective()
	if err != nil {
		return "", err
	}
	lo, hi := core.DesignBounds()
	var gaNF, gaGT []float64
	for i, w := range []float64{0.1, 0.3, 1, 3, 10} {
		goals := []optim.Goal{
			{Name: "NF", Target: 0.15, Weight: w},
			{Name: "-GT", Target: -24, Weight: 1},
		}
		opts := s.e4Budget()
		opts.Seed = s.cfg.seed() + int64(i+40)
		res, err := optim.GoalAttainImproved(obj, goals, lo, hi, opts)
		if err != nil {
			return "", err
		}
		gaNF = append(gaNF, res.F[0])
		gaGT = append(gaGT, -res.F[1])
	}
	pop, gens := 40, 25
	if s.cfg.Quick {
		pop, gens = 28, 15
	}
	nsga, err := optim.NSGA2(obj, lo, hi, &optim.NSGA2Options{Pop: pop, Generations: gens, Seed: s.cfg.seed()})
	if err != nil {
		return "", err
	}
	var nsNF, nsGT []float64
	for _, f := range nsga.F {
		if f[0] < 2.5 && f[1] > -30 {
			nsNF = append(nsNF, f[0])
			nsGT = append(nsGT, -f[1])
		}
	}
	p := plot.Plot{
		Title:  "Fig. E4 — NF vs GT trade-off at 1.4 GHz",
		XLabel: "NF [dB]", YLabel: "GT [dB]",
		Width: 68, Height: 18,
	}
	p.Add("improved goal attainment", gaNF, gaGT)
	p.Add("NSGA-II front", nsNF, nsGT)
	return p.Render(), nil
}

// FigVerification renders the E6 figure: designed versus measured gain and
// noise figure of the finished preamplifier.
func (s *Suite) FigVerification() (string, error) {
	d, err := s.Designer()
	if err != nil {
		return "", err
	}
	res, err := s.Design()
	if err != nil {
		return "", err
	}
	predicted, err := d.Builder.Build(res.Snapped)
	if err != nil {
		return "", err
	}
	hwBuilder := *d.Builder
	hwBuilder.Dev = s.golden
	hardware, err := hwBuilder.Build(res.Snapped)
	if err != nil {
		return "", err
	}
	freqs := mathx.Linspace(1.0e9, 1.8e9, 33)
	v := vna.NewVNA(s.cfg.seed() + 177)
	measured, err := v.Measure(freqs, func(f float64) (twoport.Mat2, error) {
		return hardware.SAt(f, 50)
	})
	if err != nil {
		return "", err
	}
	var fGHz, gPred, gMeas, nfPred []float64
	for i, f := range freqs {
		m, err := predicted.MetricsAt(f, 50)
		if err != nil {
			return "", err
		}
		fGHz = append(fGHz, f/1e9)
		gPred = append(gPred, m.GTdB)
		gMeas = append(gMeas, mathx.DB20(cmplx.Abs(measured.S[i][1][0])))
		nfPred = append(nfPred, m.NFdB)
	}
	p := plot.Plot{
		Title:  "Fig. E6 — designed vs measured preamplifier response",
		XLabel: "f [GHz]", YLabel: "dB",
		Width: 68, Height: 18,
	}
	p.Add("S21 design", fGHz, gPred)
	p.Add("S21 measured", fGHz, gMeas)
	p.Add("NF design (x10)", fGHz, scale(nfPred, 10))
	return p.Render(), nil
}

// FigCircles renders the gamma-plane design chart at band center: the
// device's noise circles, its optimum noise source and the source
// stability circle — the Smith-chart view an RF designer works from.
func (s *Suite) FigCircles() (string, error) {
	ex, err := s.Extracted()
	if err != nil {
		return "", err
	}
	res, err := s.Design()
	if err != nil {
		return "", err
	}
	bias := device.Bias{Vgs: res.Snapped.Vgs, Vds: res.Snapped.Vds}
	const f0 = 1.4e9
	tp, err := ex.Device.NoisyAt(bias, f0)
	if err != nil {
		return "", err
	}
	p, err := tp.NoiseParams(50)
	if err != nil {
		return "", err
	}
	g := plot.GammaPlane{
		Title: fmt.Sprintf("Fig. E5 — source-plane design chart at 1.4 GHz (Fmin %.2f dB)", p.FminDB()),
	}
	g.Add("GammaOpt", []complex128{p.GammaOpt})
	for _, extra := range []float64{0.1, 0.3} {
		c, err := p.Circle(p.Fmin * mathx.FromDB10(extra))
		if err == nil {
			g.AddCircle(fmt.Sprintf("NF +%.1f dB", extra), c.Center, c.Radius)
		}
	}
	sDev, err := tp.S(50)
	if err != nil {
		return "", err
	}
	sc := twoport.SourceStabilityCircle(sDev)
	if sc.Radius < 3 {
		g.AddCircle("source stability", sc.Center, sc.Radius)
	}
	return g.Render(), nil
}

// Figures renders every available figure.
func (s *Suite) Figures() ([]string, error) {
	out := make([]string, 0, 4)
	for _, f := range []func() (string, error){
		s.FigModelFit, s.FigPareto, s.FigVerification, s.FigCircles,
	} {
		fig, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
