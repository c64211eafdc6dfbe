package core

import (
	"math"

	"gnsslna/internal/mathx"
)

// LinkBudget captures the receive chain around the antenna preamplifier:
// the antenna noise temperature, the cable run between the antenna and the
// receiver, and the receiver's own front-end noise. It quantifies what the
// low-noise preamplifier buys in carrier-to-noise density — the system-level
// reason the paper optimizes tenths of a dB.
type LinkBudget struct {
	// AntennaTempK is the antenna noise temperature in kelvin (~100 K for
	// a sky-pointing GNSS patch including ground spillover).
	AntennaTempK float64
	// CableLossDB is the coax loss between antenna and receiver in dB.
	CableLossDB float64
	// ReceiverNFdB is the receiver front-end noise figure in dB.
	ReceiverNFdB float64
}

// DefaultLinkBudget returns a typical rooftop GNSS installation: 100 K
// antenna, 4 dB of RG-58 to the receiver, 8 dB receiver NF.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{AntennaTempK: 100, CableLossDB: 4, ReceiverNFdB: 8}
}

// chainTe returns the equivalent input noise temperature of the post-antenna
// chain, optionally led by the preamplifier.
func (lb LinkBudget) chainTe(withLNA bool, lnaNFdB, lnaGainDB float64) float64 {
	l := mathx.FromDB10(lb.CableLossDB) // cable loss (linear >= 1)
	fRx := mathx.FromDB10(lb.ReceiverNFdB)
	// Cable at T0 followed by receiver: F = L * fRx (cable F = L, gain 1/L).
	fTail := l * fRx
	if !withLNA {
		return mathx.NFToTemp(fTail)
	}
	fLNA := mathx.FromDB10(lnaNFdB)
	gLNA := mathx.FromDB10(lnaGainDB)
	f := fLNA + (fTail-1)/gLNA
	return mathx.NFToTemp(f)
}

// SystemNoiseTemp returns the receive-system noise temperature (antenna +
// chain) in kelvin.
func (lb LinkBudget) SystemNoiseTemp(withLNA bool, lnaNFdB, lnaGainDB float64) float64 {
	return lb.AntennaTempK + lb.chainTe(withLNA, lnaNFdB, lnaGainDB)
}

// CN0ImprovementDB returns the carrier-to-noise-density gain (dB-Hz) the
// preamplifier provides over the bare cable-plus-receiver chain.
func (lb LinkBudget) CN0ImprovementDB(lnaNFdB, lnaGainDB float64) float64 {
	without := lb.SystemNoiseTemp(false, 0, 0)
	with := lb.SystemNoiseTemp(true, lnaNFdB, lnaGainDB)
	return 10 * math.Log10(without/with)
}

// CN0DBHz returns the absolute carrier-to-noise density for a received
// signal power (dBm) with the given system configuration.
func (lb LinkBudget) CN0DBHz(signalDBm float64, withLNA bool, lnaNFdB, lnaGainDB float64) float64 {
	tsys := lb.SystemNoiseTemp(withLNA, lnaNFdB, lnaGainDB)
	n0DBm := 10*math.Log10(mathx.Boltzmann*tsys) + 30
	return signalDBm - n0DBm
}
