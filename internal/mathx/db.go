package mathx

import "math"

// Physical constants used throughout the RF analysis.
const (
	// Boltzmann is the Boltzmann constant in J/K.
	Boltzmann = 1.380649e-23
	// T0 is the IEEE standard noise reference temperature in kelvin.
	T0 = 290.0
)

// DB10 converts a power ratio to decibels (10 log10).
func DB10(ratio float64) float64 { return 10 * math.Log10(ratio) }

// DB20 converts an amplitude ratio to decibels (20 log10).
func DB20(ratio float64) float64 { return 20 * math.Log10(ratio) }

// FromDB10 converts decibels to a power ratio.
func FromDB10(db float64) float64 { return math.Pow(10, db/10) }

// FromDB20 converts decibels to an amplitude ratio.
func FromDB20(db float64) float64 { return math.Pow(10, db/20) }

// WattsToDBm converts a power in watts to dBm.
func WattsToDBm(w float64) float64 { return 10*math.Log10(w) + 30 }

// NFToTemp converts a noise figure (linear ratio, F >= 1) to an equivalent
// noise temperature in kelvin.
func NFToTemp(f float64) float64 { return (f - 1) * T0 }
