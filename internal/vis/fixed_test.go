package vis

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFixed compares appendFixed against strconv for prec 0–2.
func checkFixed(t *testing.T, x float64) {
	t.Helper()
	var got, want [64]byte
	for prec := 0; prec <= 2; prec++ {
		g := appendFixed(got[:0], x, prec)
		w := strconv.AppendFloat(want[:0], x, 'f', prec, 64)
		if string(g) != string(w) {
			t.Fatalf("appendFixed(%v [%#016x], %d) = %q, want %q", x, math.Float64bits(x), prec, g, w)
		}
	}
}

func TestAppendFixedSpecialValues(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1),
		0.5, 1.5, 2.5, -0.5, -2.5, // halves at prec 0
		0.25, 0.75, 0.125, 0.375, 1.125, -1.125, 2.675, // halves at prec 1/2
		0.15, 0.35, 1.005, 0.045, // just below a decimal half
		math.Nextafter(0.25, 0), math.Nextafter(0.25, 1),
		math.Nextafter(0.125, 0), math.Nextafter(0.125, 1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), // smallest normal, largest subnormal
		1<<53 - 1, 1 << 52, 1<<52 + 0.5, -(1<<53 - 1),
		1 << 53, 1<<53 + 2, 1e17, -1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		nodeRadius * 1.6, marginX + siblingGap*0.5,
	}
	for _, x := range cases {
		checkFixed(t, x)
	}
}

func TestAppendFixedExactDecimalHalves(t *testing.T) {
	// k/8 lands exactly on a decimal half at every precision (0.5,
	// 0.25, 0.125); k/20, k/200 and k/1000 sit a rounding error off
	// one (0.15 is stored just below 0.15).
	for k := -100000; k <= 100000; k++ {
		checkFixed(t, float64(k)/8)
		checkFixed(t, float64(k)/20)
		checkFixed(t, float64(k)/200)
		checkFixed(t, float64(k)/1000)
	}
}

func TestAppendFixedRandom(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		// Magnitudes around the fast path's range, |x| < 2^60.
		e := rng.Intn(80) - 20
		checkFixed(t, math.Ldexp(rng.Float64(), e)*float64(1-2*rng.Intn(2)))
		if i%32 == 0 {
			// Any bit pattern: NaNs, infinities, subnormals and huge
			// values, whose long strconv output makes them slow.
			checkFixed(t, math.Float64frombits(rng.Uint64()))
		}
	}
}
