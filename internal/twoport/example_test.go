package twoport_test

import (
	"fmt"
	"math"

	"gnsslna/internal/twoport"
)

// ExampleCascadeS composes a 3 dB matched attenuator with itself: the
// cascade loses 6 dB and stays matched.
func ExampleCascadeS() {
	a := math.Pow(10, 3.0/20)
	r1 := 50 * (a - 1) / (a + 1)
	r2 := 50 * 2 * a / (a*a - 1)
	abcd := twoport.SeriesZ(complex(r1, 0)).
		Mul(twoport.ShuntY(complex(1/r2, 0))).
		Mul(twoport.SeriesZ(complex(r1, 0)))
	s, _ := twoport.ABCDToS(abcd, 50)
	casc, _ := twoport.CascadeS(50, s, s)
	fmt.Printf("|S21| = %.4f (6 dB)\n", real(casc[1][0]))
	fmt.Printf("|S11| = %.4f\n", real(casc[0][0]))
	// Output:
	// |S21| = 0.5012 (6 dB)
	// |S11| = 0.0000
}

// ExampleRolletK computes the Rollet stability factor of a
// transistor-like S-matrix.
func ExampleRolletK() {
	s := twoport.Mat2{
		{complex(0.3, 0.2), complex(0.05, 0.01)},
		{complex(2.0, 1.0), complex(0.4, -0.3)},
	}
	fmt.Printf("K = %.3f\n", twoport.RolletK(s))
	// Output:
	// K = 2.782
}

// ExampleGammaFromZ converts an impedance to a reflection coefficient and
// back.
func ExampleGammaFromZ() {
	g := twoport.GammaFromZ(complex(100, 0), 50)
	z := twoport.ZFromGamma(g, 50)
	fmt.Printf("gamma = %.3f, back to Z = %.0f\n", real(g), real(z))
	// Output:
	// gamma = 0.333, back to Z = 100
}
