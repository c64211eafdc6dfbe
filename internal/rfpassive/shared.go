package rfpassive

import (
	"math"
	"sync"
	"sync/atomic"
)

// Shared wraps an element that many chains hold at once, such as the bias
// tees, stabilizer and DC blocks every amplifier from one builder carries,
// and remembers its compiled factor per frequency. A compiled chain that
// meets a *Shared computes the inner element's series impedance or shunt
// admittance at a frequency once and reads the stored complex128 from then
// on, so every chain sharing the element reuses the exact value the first
// evaluation produced and stays bit-identical to the uncached path.
//
// ABCD, Noisy and String are the inner element's: the generic Chain
// evaluation and reports see no difference. The inner element must not
// change after wrapping. An inner element that compiles to a generic step
// (a nested Chain, a line) is not cached.
//
// Shared is safe for concurrent use. Readers load an immutable table
// sorted by frequency bits; a miss computes the value and inserts it
// copy-on-write under a mutex. Use it by pointer (NewShared).
type Shared struct {
	Element

	mu   sync.Mutex
	vals atomic.Pointer[[]sharedVal]
}

var _ Element = (*Shared)(nil)

// sharedBound caps the entries one table holds. The design grids have at
// most a few dozen points; past the bound (say, a long one-off sweep),
// values are computed directly instead of stored.
const sharedBound = 256

// sharedVal is one table entry. The key is math.Float64bits of the
// frequency, so +0 Hz, -0 Hz and distinct NaN payloads never share an
// entry.
type sharedVal struct {
	key uint64
	v   complex128
}

// NewShared wraps e for sharing across chains.
func NewShared(e Element) *Shared {
	return &Shared{Element: e}
}

// searchShared returns the index of key in the sorted table t, or where it
// would be inserted, and whether it is present.
func searchShared(t []sharedVal, key uint64) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].key == key
}

// lookup returns the stored factor at f, if any.
func (s *Shared) lookup(f float64) (complex128, bool) {
	p := s.vals.Load()
	if p == nil {
		return 0, false
	}
	t := *p
	if i, ok := searchShared(t, math.Float64bits(f)); ok {
		return t[i].v, true
	}
	return 0, false
}

// store records v as the factor at f unless the table is full or already
// holds f (a concurrent miss computed the same value).
func (s *Shared) store(f float64, v complex128) {
	key := math.Float64bits(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	var old []sharedVal
	if p := s.vals.Load(); p != nil {
		old = *p
	}
	i, ok := searchShared(old, key)
	if ok || len(old) >= sharedBound {
		return
	}
	t := make([]sharedVal, len(old)+1)
	copy(t, old[:i])
	t[i] = sharedVal{key: key, v: v}
	copy(t[i+1:], old[i:])
	s.vals.Store(&t)
}
