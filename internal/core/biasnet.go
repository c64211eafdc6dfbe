package core

import (
	"fmt"

	"gnsslna/internal/device"
	"gnsslna/internal/mna"
	"gnsslna/internal/units"
)

// BiasNetwork is the DC side of the amplifier: a gate divider from the
// supply and a drain feed resistor, with the values chosen so the
// transistor lands on the optimized operating point after every resistor
// is snapped to the E24 series.
type BiasNetwork struct {
	// Vcc is the supply voltage.
	Vcc float64
	// R1 (supply to gate) and R2 (gate to ground) form the divider.
	R1, R2 float64
	// RDrain drops the supply to the drain (carries Ids).
	RDrain float64
	// Achieved is the operating point the full nonlinear solve lands on.
	Achieved struct {
		Vgs, Vds, IdsA float64
	}
}

// DesignBiasNetwork synthesizes the DC network for a design and verifies it
// with the nonlinear MNA solve against the actual transistor model. The
// divider current is set to ~50x the (zero) gate current for stiffness,
// i.e. around 100 uA.
func (d *Designer) DesignBiasNetwork(x Design, vcc float64) (BiasNetwork, error) {
	if vcc <= x.Vds {
		return BiasNetwork{}, fmt.Errorf("core: Vcc %.2f V below target Vds %.2f V", vcc, x.Vds)
	}
	if x.Vgs <= 0 || x.Vgs >= vcc {
		return BiasNetwork{}, fmt.Errorf("core: gate target %.2f V not reachable from a %.2f V divider", x.Vgs, vcc)
	}
	dev := d.Builder.Dev
	ids := dev.Ids(device.Bias{Vgs: x.Vgs, Vds: x.Vds})
	if ids < 1e-3 {
		return BiasNetwork{}, fmt.Errorf("core: design draws only %.3g A drain current", ids)
	}
	bn := BiasNetwork{Vcc: vcc}
	// Drain resistor from the voltage headroom.
	bn.RDrain = units.SnapE24((vcc - x.Vds) / ids)
	// Divider: ~100 uA chain current.
	const idiv = 100e-6
	bn.R2 = units.SnapE24(x.Vgs / idiv)
	bn.R1 = units.SnapE24((vcc - x.Vgs) / idiv)

	// Verify with the nonlinear DC solve.
	c := mna.NewDC()
	c.AddV("vcc", "0", vcc)
	c.AddR("vcc", "gate", bn.R1)
	c.AddR("gate", "0", bn.R2)
	c.AddR("vcc", "drain", bn.RDrain)
	c.AddFET(dev.DC, "gate", "drain", "0")
	v, err := c.OperatingPoint()
	if err != nil {
		return BiasNetwork{}, fmt.Errorf("core: bias verification: %w", err)
	}
	bias, gotIds, err := c.FETBias(v, 0)
	if err != nil {
		return BiasNetwork{}, err
	}
	bn.Achieved.Vgs = bias.Vgs
	bn.Achieved.Vds = bias.Vds
	bn.Achieved.IdsA = gotIds
	return bn, nil
}

// BOMLine is one bill-of-materials entry.
type BOMLine struct {
	// Ref is the schematic reference designator.
	Ref string
	// Value is the formatted component value.
	Value string
	// Role describes the component's function.
	Role string
}

// BOM produces the buildable bill of materials for a snapped design plus
// its bias network.
func (d *Designer) BOM(x Design, bn BiasNetwork) []BOMLine {
	b := d.Builder
	return []BOMLine{
		{Ref: "Q1", Value: b.Dev.Name, Role: "low-noise pHEMT"},
		{Ref: "L1", Value: units.Format(x.LIn, "H"), Role: "input series match"},
		{Ref: "L2", Value: units.Format(x.LOut, "H"), Role: "output series match"},
		{Ref: "L3", Value: units.Format(x.LDegen, "H"), Role: "source degeneration (stub/via)"},
		{Ref: "L4", Value: units.Format(feedL, "H"), Role: "gate bias feed"},
		{Ref: "L5", Value: units.Format(feedL, "H"), Role: "drain bias feed"},
		{Ref: "L6", Value: units.Format(stabL, "H"), Role: "output stabilizer inductor"},
		{Ref: "C1", Value: units.Format(dcBlockC, "F"), Role: "input DC block"},
		{Ref: "C2", Value: units.Format(x.COut, "F"), Role: "output shunt match"},
		{Ref: "C3", Value: units.Format(dcBlockC, "F"), Role: "output DC block"},
		{Ref: "C4", Value: units.Format(feedC, "F"), Role: "gate feed bypass"},
		{Ref: "C5", Value: units.Format(feedC, "F"), Role: "drain feed bypass"},
		{Ref: "R1", Value: units.Format(bn.R1, "Ohm"), Role: "gate divider (top)"},
		{Ref: "R2", Value: units.Format(bn.R2, "Ohm"), Role: "gate divider (bottom)"},
		{Ref: "R3", Value: units.Format(bn.RDrain, "Ohm"), Role: "drain feed"},
		{Ref: "R4", Value: units.Format(gateDampR, "Ohm"), Role: "gate feed damper"},
		{Ref: "R5", Value: units.Format(drainDampR, "Ohm"), Role: "drain feed damper"},
		{Ref: "R6", Value: units.Format(stabR, "Ohm"), Role: "output stabilizer resistor"},
	}
}

// PowerUpReport summarizes the supply-ramp transient of the bias network.
type PowerUpReport struct {
	// GatePeak and GateFinal are the peak and settled gate voltages.
	GatePeak, GateFinal float64
	// DrainFinal is the settled drain voltage.
	DrainFinal float64
	// OvershootFrac is (peak-final)/final at the gate (0 = monotone).
	OvershootFrac float64
}

// PowerUpCheck simulates the supply ramping to Vcc over riseTime through
// the designed bias network (including the bypass capacitors and the
// transistor's nonlinear load) and reports the gate transient. A large gate
// overshoot would stress the device beyond its DC ratings even though the
// static design is fine — the check frequency-domain analysis cannot do.
func (d *Designer) PowerUpCheck(bn BiasNetwork, riseTime float64) (PowerUpReport, error) {
	if riseTime <= 0 {
		riseTime = 1e-4
	}
	tr := mna.NewTransient()
	tr.AddV("vcc", "0", mna.RampV(bn.Vcc, riseTime))
	tr.AddR("vcc", "gate", bn.R1)
	tr.AddR("gate", "0", bn.R2)
	tr.AddC("gate", "0", feedC) // gate bypass
	tr.AddR("vcc", "drain", bn.RDrain)
	tr.AddC("drain", "0", feedC) // drain bypass
	tr.AddFET(d.Builder.Dev.DC, "gate", "drain", "0")
	wf, err := tr.Run(5*riseTime, riseTime/200, []string{"gate", "drain"})
	if err != nil {
		return PowerUpReport{}, fmt.Errorf("core: power-up transient: %w", err)
	}
	rep := PowerUpReport{
		GatePeak:   wf["gate"].Max(),
		GateFinal:  wf["gate"].Final(),
		DrainFinal: wf["drain"].Final(),
	}
	if rep.GateFinal > 0 {
		rep.OvershootFrac = (rep.GatePeak - rep.GateFinal) / rep.GateFinal
		if rep.OvershootFrac < 0 {
			rep.OvershootFrac = 0
		}
	}
	return rep, nil
}

// BiasError reports how far the snapped bias network lands from the design
// target, in volts and relative drain current.
func (bn BiasNetwork) BiasError(x Design) (dVgs, dVds, relIds float64) {
	dVgs = bn.Achieved.Vgs - x.Vgs
	dVds = bn.Achieved.Vds - x.Vds
	// Relative current error needs the target; derive from the headroom.
	target := (bn.Vcc - x.Vds) / bn.RDrain
	if target > 0 {
		relIds = (bn.Achieved.IdsA - target) / target
	}
	return dVgs, dVds, relIds
}
