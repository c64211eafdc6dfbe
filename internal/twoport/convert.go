package twoport

// Parameter conversions follow the standard tables (e.g. Frickey, "Conversion
// between S, Z, Y, h, ABCD and T parameters which are valid for complex
// source and load impedances", IEEE MTT 1994) specialized to a real reference
// impedance z0 at both ports.

// SToZ converts scattering parameters to impedance parameters.
func SToZ(s Mat2, z0 float64) (Mat2, error) {
	zc := complex(z0, 0)
	i := Identity2()
	den := i.Add(s.Scale(-1)) // I - S
	inv, err := den.Inv()
	if err != nil {
		return Mat2{}, err
	}
	return inv.Mul(i.Add(s)).Scale(zc), nil // Z = z0 (I-S)^-1 (I+S)
}

// ZToS converts impedance parameters to scattering parameters.
func ZToS(z Mat2, z0 float64) (Mat2, error) {
	zc := complex(z0, 0)
	zn := z.Scale(1 / zc) // normalized
	i := Identity2()
	den := zn.Add(i)
	inv, err := den.Inv()
	if err != nil {
		return Mat2{}, err
	}
	return zn.Add(i.Scale(-1)).Mul(inv), nil // S = (Zn-I)(Zn+I)^-1
}

// SToY converts scattering parameters to admittance parameters.
func SToY(s Mat2, z0 float64) (Mat2, error) {
	y0 := complex(1/z0, 0)
	i := Identity2()
	den := i.Add(s)
	inv, err := den.Inv()
	if err != nil {
		return Mat2{}, err
	}
	return inv.Mul(i.Add(s.Scale(-1))).Scale(y0), nil // Y = y0 (I+S)^-1 (I-S)
}

// YToS converts admittance parameters to scattering parameters.
func YToS(y Mat2, z0 float64) (Mat2, error) {
	zc := complex(z0, 0)
	yn := y.Scale(zc)
	i := Identity2()
	den := i.Add(yn)
	inv, err := den.Inv()
	if err != nil {
		return Mat2{}, err
	}
	return inv.Mul(i.Add(yn.Scale(-1))), nil // S = (I+Yn)^-1 (I-Yn)
}

// YToZ converts admittance to impedance parameters.
func YToZ(y Mat2) (Mat2, error) { return y.Inv() }

// ZToY converts impedance to admittance parameters.
func ZToY(z Mat2) (Mat2, error) { return z.Inv() }

// YToABCD converts admittance parameters to chain parameters.
func YToABCD(y Mat2) (Mat2, error) {
	if y[1][0] == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	d := y.Det()
	return Mat2{
		{-y[1][1] / y[1][0], -1 / y[1][0]},
		{-d / y[1][0], -y[0][0] / y[1][0]},
	}, nil
}

// ABCDToY converts chain parameters to admittance parameters.
func ABCDToY(a Mat2) (Mat2, error) {
	b := a[0][1]
	if b == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	d := a.Det()
	return Mat2{
		{a[1][1] / b, -d / b},
		{-1 / b, a[0][0] / b},
	}, nil
}

// SToABCD converts scattering parameters to chain parameters.
func SToABCD(s Mat2, z0 float64) (Mat2, error) {
	zc := complex(z0, 0)
	s21 := s[1][0]
	if s21 == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	den := 2 * s21
	return Mat2{
		{((1+s[0][0])*(1-s[1][1]) + s[0][1]*s[1][0]) / den, zc * ((1+s[0][0])*(1+s[1][1]) - s[0][1]*s[1][0]) / den},
		{((1-s[0][0])*(1-s[1][1]) - s[0][1]*s[1][0]) / den / zc, ((1-s[0][0])*(1+s[1][1]) + s[0][1]*s[1][0]) / den},
	}, nil
}

// ABCDToS converts chain parameters to scattering parameters.
func ABCDToS(a Mat2, z0 float64) (Mat2, error) {
	zc := complex(z0, 0)
	A, B, C, D := a[0][0], a[0][1], a[1][0], a[1][1]
	den := A + B/zc + C*zc + D
	if den == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	det := a.Det()
	return Mat2{
		{(A + B/zc - C*zc - D) / den, 2 * det / den},
		{2 / den, (-A + B/zc - C*zc + D) / den},
	}, nil
}

// ZToH converts impedance parameters to hybrid parameters.
func ZToH(z Mat2) (Mat2, error) {
	if z[1][1] == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	d := z.Det()
	return Mat2{
		{d / z[1][1], z[0][1] / z[1][1]},
		{-z[1][0] / z[1][1], 1 / z[1][1]},
	}, nil
}

// HToZ converts hybrid parameters to impedance parameters.
func HToZ(h Mat2) (Mat2, error) {
	if h[1][1] == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	d := h.Det()
	return Mat2{
		{d / h[1][1], h[0][1] / h[1][1]},
		{-h[1][0] / h[1][1], 1 / h[1][1]},
	}, nil
}

// SToT converts scattering parameters to chain-scattering (T) parameters,
// which cascade by plain matrix multiplication like ABCD.
func SToT(s Mat2) (Mat2, error) {
	if s[1][0] == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	return Mat2{
		{1 / s[1][0], -s[1][1] / s[1][0]},
		{s[0][0] / s[1][0], -s.Det() / s[1][0]},
	}, nil
}

// TToS converts chain-scattering parameters back to scattering parameters.
func TToS(t Mat2) (Mat2, error) {
	if t[0][0] == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	return Mat2{
		{t[1][0] / t[0][0], t.Det() / t[0][0]},
		{1 / t[0][0], -t[0][1] / t[0][0]},
	}, nil
}

// CascadeS cascades two-ports given by their S-parameters (both referenced
// to z0) and returns the S-parameters of the combination.
func CascadeS(z0 float64, stages ...Mat2) (Mat2, error) {
	if len(stages) == 0 {
		return Mat2{}, ErrSingularNetwork
	}
	t, err := SToT(stages[0])
	if err != nil {
		return Mat2{}, err
	}
	for _, s := range stages[1:] {
		tn, err := SToT(s)
		if err != nil {
			return Mat2{}, err
		}
		t = t.Mul(tn)
	}
	return TToS(t)
}
