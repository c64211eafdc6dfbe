package rfpassive

import "math"

// OpenEndExtension returns the equivalent length extension dL of a
// microstrip open end (Kirschning, Jansen & Koster closed form): the
// fringing field makes an open stub look electrically longer by dL.
func (s Substrate) OpenEndExtension(w float64) float64 {
	e0, _ := s.StaticParams(w)
	u := w / s.H
	x1 := 0.434907 * (math.Pow(e0, 0.81) + 0.26) / (math.Pow(e0, 0.81) - 0.189) *
		(math.Pow(u, 0.8544) + 0.236) / (math.Pow(u, 0.8544) + 0.87)
	x2 := 1 + math.Pow(u, 0.371)/(2.358*s.Er+1)
	x3 := 1 + 0.5274*math.Atan(0.084*math.Pow(u, 1.9413/x2))/math.Pow(e0, 0.9236)
	x4 := 1 + 0.0377*math.Atan(0.067*math.Pow(u, 1.456))*(6-5*math.Exp(0.036*(1-s.Er)))
	x5 := 1 - 0.218*math.Exp(-7.5*u)
	return s.H * x1 * x3 * x5 / x4
}

// OpenStubWithEnd returns an open-circuited stub Line whose physical length
// is shortened by the open-end extension so its electrical behaviour matches
// the target length — the correction the paper's careful element equations
// apply when cutting real stubs.
func OpenStubWithEnd(sub Substrate, w, targetLen float64) Line {
	l := targetLen - sub.OpenEndExtension(w)
	if l < 0 {
		l = 0
	}
	return Line{Sub: sub, W: w, Len: l, Dispersion: true}
}
