package match_test

import (
	"fmt"
	"math/cmplx"

	"gnsslna/internal/match"
)

// ExampleDesignSingleStub places a shunt open stub to match a complex load.
func ExampleDesignSingleStub() {
	m, _ := match.DesignSingleStub(complex(25, 40), 50, true)
	zin := m.InputImpedance(complex(25, 40), 50)
	fmt.Printf("matched: %v\n", cmplx.Abs(zin-50) < 1e-9)
	// Output:
	// matched: true
}
