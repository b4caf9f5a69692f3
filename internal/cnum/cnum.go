// Package cnum provides a tolerance-based unique table for complex
// numbers, following the design of "How to Efficiently Handle Complex
// Values? Implementing Decision Diagrams for Quantum Computing"
// (Zulehner, Hillmich, Wille; ICCAD 2019).
//
// Decision diagrams for quantum computing annotate edges with complex
// weights. Floating-point arithmetic introduces tiny representation
// errors, so two weights that are mathematically equal may differ in
// their bit patterns. Without countermeasures this destroys node
// sharing (the whole point of a decision diagram) and compute-table
// hits. The fix is to funnel every weight a diagram keeps through a
// unique table that maps all values within a tolerance of each other
// onto one canonical representative. Canonical values are
// bit-identical and may therefore be used directly as Go map keys.
// Package dd canonicalizes only where it needs those bits: the child
// weights a node stores, the weights in compute-table keys and the
// root edges its operations return. Intermediate results stay raw.
//
// # Table layout
//
// A Table stores its canonical reals in one flat array of 8-byte
// slots. A slot holds the value's bits XORed with a fixed NaN pattern
// (slotNaN), so a zeroed slot is empty and a fresh array needs no
// initialization: LookupReal rejects NaN, so no stored value encodes
// to zero. A value's bucket is floor(v/(2·tol)); slots are
// open-addressed by the hashed bucket with linear probing. The bucket
// is not stored: a lookup recomputes it, with a range compare, only
// for a stored value that already lies within tol of the query.
//
// Canonicalization depends on the order in which a lookup meets the
// stored candidates: bucket key first, then key−1, then key+1, and
// within a bucket the oldest value first. Nothing is ever deleted, so
// a bucket's values lie along its probe sequence in insertion order
// and a new value takes the first empty slot after them. Growth keeps
// that order by re-inserting each probe cluster in probe order. The
// flat table therefore returns exactly what a table of per-bucket
// value slices returns.
//
// A miss in its own bucket probes only the neighbour that can hold a
// representative within tol: key−1 when v lies in the lower half of
// its bucket, key+1 in the upper half. Within 1/64 of a bucket of the
// midpoint, or where v/(2·tol) is too large for that split to be
// exact, it probes both, key−1 first. Skipping a bucket that cannot
// answer leaves the order above, and so every result, unchanged.
//
// The array holds no pointers. Inserting a value allocates nothing,
// and the garbage collector never scans the table; a slice per bucket
// would cost one allocation per distinct value, all of them pointers
// the collector traces on every cycle. Every DD node creation passes
// its child weights through this table, so both costs sit on the
// engine's hot path. Slot arrays are drawn from package pool: growth
// hands the outgrown array back, and so does Release when the table's
// package is finished.
package cnum

import (
	"fmt"
	"math"
	"math/cmplx"
	"strconv"

	"quantumdd/internal/pool"
)

// DefaultTolerance is the radius within which two real values are
// identified. It matches the default of the JKQ/MQT DD package.
const DefaultTolerance = 1e-10

// Commonly used canonical constants. Zero and One are canonical in
// every Table because the table seeds its buckets with them.
const (
	// SqrtHalf is 1/sqrt(2), the ubiquitous Hadamard amplitude.
	SqrtHalf = 0.70710678118654752440084436210484903928
)

// Table is a unique table of real numbers with tolerance-based lookup.
// Complex values are canonicalized component-wise. A Table is not safe
// for concurrent use; decision-diagram packages own exactly one.
//
// Values are grouped into half-open buckets of width 2·tol (the
// complex-table layout of Zulehner et al., ICCAD 2019): a value's
// bucket index is floor(v/(2·tol)), and a lookup probes the value's
// own bucket plus the neighbours that can hold a value within tol, so
// any stored representative within tol is found. The package
// documentation describes the flat store and the ordering invariant
// that keeps lookups exact.
type Table struct {
	tol     float64
	inv     float64  // 1/bucket width
	slots   []uint64 // power-of-two open-addressed store; 0 marks empty
	mask    uint64
	n       int // stored values
	lookups uint64
	hits    uint64
}

// slotNaN is the quiet-NaN bit pattern XORed into every stored value,
// so that the zero slot of a fresh array reads as empty.
const slotNaN = 0x7ff8_0000_0000_0001

func encode(v float64) uint64 { return math.Float64bits(v) ^ slotNaN }
func decode(s uint64) float64 { return math.Float64frombits(s ^ slotNaN) }

// NewTable returns a table using DefaultTolerance.
func NewTable() *Table { return NewTableTol(DefaultTolerance) }

// minSlots keeps even tiny tables collision-light after seeding.
const minSlots = 256

// NewTableTol returns a table identifying reals within tol of each
// other. tol must be positive.
func NewTableTol(tol float64) *Table {
	if tol <= 0 {
		panic(fmt.Sprintf("cnum: tolerance must be positive, got %g", tol))
	}
	t := &Table{
		tol:   tol,
		inv:   1 / (2 * tol),
		slots: pool.Get[uint64](minSlots),
		mask:  minSlots - 1,
	}
	// Seed with the values that must be exactly representable so that
	// IsZero/IsOne tests on canonical values are exact comparisons.
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, SqrtHalf, -SqrtHalf} {
		t.LookupReal(v)
	}
	return t
}

// bucket returns v's bucket index, floor(v/(2·tol)).
func (t *Table) bucket(v float64) int64 { return int64(math.Floor(v * t.inv)) }

// inBucket reports whether t.bucket(e) == key. Below 2^52 a range
// compare on e/(2·tol) answers exactly and without calling Floor;
// larger magnitudes, ±Inf included, take the general path.
func (t *Table) inBucket(e float64, key int64) bool {
	x := e * t.inv
	if math.Abs(x) < 1<<52 {
		kf := float64(key)
		return kf <= x && x < kf+1
	}
	return int64(math.Floor(x)) == key
}

// find scans bucket key's probe cluster for a representative of v. It
// returns the index of the first one in insertion order, or of the
// empty slot that ends the cluster (where v would be inserted).
// Infinities match only themselves: |Inf−Inf| is NaN.
func (t *Table) find(key int64, v float64) (i uint64, ok bool) {
	for i = hashInt64(key) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return i, false
		}
		if e := decode(s); (math.Abs(e-v) <= t.tol || e == v) && t.inBucket(e, key) {
			return i, true
		}
	}
}

// grow doubles the slot array and re-inserts every value. The rehash
// starts at an empty slot, so each probe cluster, including one that
// wraps around the end of the array, is walked in probe order: the
// values of a bucket keep their insertion order.
func (t *Table) grow() {
	old := t.slots
	t.slots = pool.Get[uint64](2 * len(old))
	t.mask = uint64(len(t.slots)) - 1
	oldMask := len(old) - 1
	start := 0
	for old[start] != 0 {
		start++
	}
	for j := range old {
		s := old[(start+j)&oldMask]
		if s == 0 {
			continue
		}
		t.slots[t.freeSlot(t.bucket(decode(s)))] = s
	}
	pool.Put(old)
}

// Release hands the slot array to the pool and empties the table. The
// table is unusable afterwards: a lookup panics instead of reading
// slots another table may own by then. Canonical values already handed
// out stay valid numbers.
func (t *Table) Release() {
	pool.Put(t.slots)
	t.slots, t.mask, t.n = nil, 0, 0
}

// freeSlot returns the empty slot that ends bucket key's probe
// cluster: where the bucket's next value goes.
func (t *Table) freeSlot(key int64) uint64 {
	i := hashInt64(key) & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	return i
}

// Tolerance reports the identification radius of the table.
func (t *Table) Tolerance() float64 { return t.tol }

// Stats reports the number of lookups performed and how many of them
// hit an existing canonical value.
func (t *Table) Stats() (lookups, hits uint64) { return t.lookups, t.hits }

// LookupReal returns the canonical representative for v: if a value
// within the tolerance is already stored it is returned, otherwise v
// itself becomes canonical. ±Inf are canonicalized by exact match.
func (t *Table) LookupReal(v float64) float64 {
	t.lookups++
	if v == 0 && t.n > 0 {
		// Exact zeros (absent edges, imaginary parts of real weights)
		// are the most common input. Zero is the first value ever
		// stored, so bucket 0 always answers with it.
		t.hits++
		return 0
	}
	if math.IsNaN(v) {
		panic("cnum: NaN cannot be canonicalized")
	}
	x := v * t.inv
	fl := math.Floor(x)
	key := int64(fl)
	free, ok := t.find(key, v)
	if ok {
		t.hits++
		return decode(t.slots[free])
	}
	// Not in its own bucket: free is where v goes if the neighbours
	// have no representative either. Only the neighbour on v's side of
	// the bucket midpoint can hold one within tol; below 2^40 the
	// rounding of x is far below the 1/64 margin.
	lower, upper := true, true
	if math.Abs(x) < 1<<40 {
		switch f := x - fl; {
		case f < 0.5-1.0/64:
			upper = false
		case f > 0.5+1.0/64:
			lower = false
		}
	}
	if lower {
		if i, ok := t.find(key-1, v); ok {
			t.hits++
			return decode(t.slots[i])
		}
	}
	if upper {
		if i, ok := t.find(key+1, v); ok {
			t.hits++
			return decode(t.slots[i])
		}
	}
	t.n++
	// Load stays at most 1/2, keeping the cluster scans of a lookup
	// short under linear probing.
	if 2*t.n > len(t.slots) {
		t.grow()
		free = t.freeSlot(key)
	}
	t.slots[free] = encode(v)
	return v
}

// Lookup returns the canonical representative of c, canonicalizing the
// real and imaginary parts independently.
func (t *Table) Lookup(c complex128) complex128 {
	return complex(t.LookupReal(real(c)), t.LookupReal(imag(c)))
}

// Size reports the number of distinct canonical reals stored.
func (t *Table) Size() int { return t.n }

// Multiply-xor mixing constants (golden-ratio multipliers of the
// splitmix64 finalizer), shared by the hash helpers below and the
// decision-diagram unique tables built on top of them. These replace
// a byte-wise FNV loop: the hashes sit on the hot path of every
// canonical-value lookup, where a handful of multiply/shift
// instructions beat sixteen loop iterations.
const (
	mixMul1 = 0x9e3779b97f4a7c15
	mixMul2 = 0xbf58476d1ce4e5b9
	mixMul3 = 0x94d049bb133111eb
)

// mix64 finalizes a 64-bit value with the splitmix64 avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mixMul2
	x ^= x >> 27
	x *= mixMul3
	x ^= x >> 31
	return x
}

// hashInt64 scrambles a bucket index into a table slot hash.
func hashInt64(k int64) uint64 {
	return mix64(uint64(k) * mixMul1)
}

// HashComplex returns the bucket hash of a canonical complex value,
// mixing the components asymmetrically so that conjugates and
// swapped components land in different buckets.
func HashComplex(c complex128) uint64 {
	return mix64(math.Float64bits(real(c))*mixMul1 ^ math.Float64bits(imag(c))*mixMul2)
}

// ApproxEqual reports whether a and b are component-wise within tol.
func ApproxEqual(a, b complex128, tol float64) bool {
	return math.Abs(real(a)-real(b)) <= tol && math.Abs(imag(a)-imag(b)) <= tol
}

// IsZero reports whether c is component-wise within tol of zero.
func IsZero(c complex128, tol float64) bool { return ApproxEqual(c, 0, tol) }

// IsOne reports whether c is component-wise within tol of one.
func IsOne(c complex128, tol float64) bool { return ApproxEqual(c, 1, tol) }

// Phase returns the argument of c in (-π, π].
func Phase(c complex128) float64 { return cmplx.Phase(c) }

// piFractions lists denominators tried when pretty-printing angles.
var piFractions = []int{1, 2, 3, 4, 6, 8, 12, 16, 32}

// FormatAngle renders an angle in radians as a π-fraction where one
// exists within tolerance ("π/4", "-3π/8", …) and as a decimal
// otherwise. This mirrors the edge-weight labels in the paper's
// "classic" visualization style.
func FormatAngle(theta float64) string {
	if math.Abs(theta) <= DefaultTolerance {
		return "0"
	}
	for _, d := range piFractions {
		ratio := theta * float64(d) / math.Pi
		n := math.Round(ratio)
		if n != 0 && math.Abs(ratio-n) <= 1e-9 {
			return formatPi(int(n), d)
		}
	}
	return strconv.FormatFloat(theta, 'g', 6, 64)
}

func formatPi(num, den int) string {
	sign := ""
	if num < 0 {
		sign = "-"
		num = -num
	}
	switch {
	case den == 1 && num == 1:
		return sign + "π"
	case den == 1:
		return fmt.Sprintf("%s%dπ", sign, num)
	case num == 1:
		return fmt.Sprintf("%sπ/%d", sign, den)
	default:
		return fmt.Sprintf("%s%dπ/%d", sign, num, den)
	}
}

// FormatComplex renders a complex number compactly for DD edge labels:
// real-only values print as reals, magnitude-one phases print as e^(iθ)
// with θ as a π-fraction, and general values as "a+bi".
func FormatComplex(c complex128) string {
	const tol = 1e-9
	re, im := real(c), imag(c)
	switch {
	case math.Abs(im) <= tol:
		return trimFloat(re)
	case math.Abs(re) <= tol:
		return trimFloat(im) + "i"
	}
	if math.Abs(cmplx.Abs(c)-1) <= tol {
		return "e^(i" + FormatAngle(cmplx.Phase(c)) + ")"
	}
	if im < 0 {
		return trimFloat(re) + "-" + trimFloat(-im) + "i"
	}
	return trimFloat(re) + "+" + trimFloat(im) + "i"
}

func trimFloat(v float64) string {
	const tol = 1e-9
	// Common DD amplitudes print symbolically.
	switch {
	case math.Abs(v-SqrtHalf) <= tol:
		return "1/√2"
	case math.Abs(v+SqrtHalf) <= tol:
		return "-1/√2"
	case math.Abs(v-0.5) <= tol:
		return "1/2"
	case math.Abs(v+0.5) <= tol:
		return "-1/2"
	}
	if math.Abs(v-math.Round(v)) <= tol {
		return strconv.FormatInt(int64(math.Round(v)), 10)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
