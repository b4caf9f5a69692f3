package cnum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLookupIdentifiesNearbyValues(t *testing.T) {
	tab := NewTable()
	a := tab.LookupReal(0.5)
	b := tab.LookupReal(0.5 + 1e-12)
	if a != b {
		t.Fatalf("values within tolerance not identified: %v vs %v", a, b)
	}
	c := tab.LookupReal(0.5 + 1e-3)
	if a == c {
		t.Fatalf("values outside tolerance wrongly identified")
	}
}

func TestLookupSeedsExactConstants(t *testing.T) {
	tab := NewTable()
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, SqrtHalf, -SqrtHalf} {
		if got := tab.LookupReal(v + 1e-12); got != v {
			t.Fatalf("seeded constant %v not returned exactly, got %v", v, got)
		}
	}
	// Canonical zero lets IsZero be an exact comparison downstream.
	if got := tab.Lookup(complex(1e-12, -1e-12)); got != 0 {
		t.Fatalf("near-zero complex canonicalized to %v, want 0", got)
	}
}

func TestLookupBucketBoundary(t *testing.T) {
	// Values straddling a bucket boundary must still be identified;
	// this exercises the neighbour-bucket probes.
	tab := NewTableTol(1e-10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := rng.Float64()*2 - 1
		c := tab.LookupReal(v)
		d := tab.LookupReal(v + (rng.Float64()-0.5)*1.9e-10)
		if math.Abs(c-d) > 2.01e-10 {
			t.Fatalf("canonical values too far apart: %v vs %v", c, d)
		}
	}
}

func TestLookupPropertyCanonicalWithinTolerance(t *testing.T) {
	tab := NewTable()
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		c := tab.LookupReal(v)
		// The canonical value is within tolerance and idempotent.
		return math.Abs(c-v) <= tab.Tolerance() && tab.LookupReal(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTableTolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive tolerance")
		}
	}()
	NewTableTol(0)
}

func TestLookupNaNPanics(t *testing.T) {
	tab := NewTable()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NaN")
		}
	}()
	tab.LookupReal(math.NaN())
}

func TestStatsAndSize(t *testing.T) {
	tab := NewTable()
	base := tab.Size()
	tab.LookupReal(0.123)
	tab.LookupReal(0.123)
	if got := tab.Size(); got != base+1 {
		t.Fatalf("size = %d, want %d", got, base+1)
	}
	lookups, hits := tab.Stats()
	if lookups == 0 || hits == 0 {
		t.Fatalf("stats not tracked: %d lookups, %d hits", lookups, hits)
	}
}

func TestPredicates(t *testing.T) {
	if !IsZero(complex(1e-12, -1e-12), 1e-10) {
		t.Fatal("IsZero failed for near-zero")
	}
	if IsZero(complex(1e-3, 0), 1e-10) {
		t.Fatal("IsZero accepted a non-zero")
	}
	if !IsOne(complex(1+1e-12, 0), 1e-10) {
		t.Fatal("IsOne failed for near-one")
	}
	if !ApproxEqual(complex(1, 2), complex(1+1e-11, 2-1e-11), 1e-10) {
		t.Fatal("ApproxEqual failed")
	}
}

func TestFormatAngle(t *testing.T) {
	cases := map[float64]string{
		0:                "0",
		math.Pi:          "π",
		math.Pi / 2:      "π/2",
		math.Pi / 4:      "π/4",
		-math.Pi / 8:     "-π/8",
		3 * math.Pi / 4:  "3π/4",
		2 * math.Pi:      "2π",
		-3 * math.Pi / 2: "-3π/2",
	}
	for in, want := range cases {
		if got := FormatAngle(in); got != want {
			t.Errorf("FormatAngle(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatAngle(1.2345); got == "" {
		t.Error("decimal fallback empty")
	}
}

func TestFormatComplex(t *testing.T) {
	cases := []struct {
		in   complex128
		want string
	}{
		{1, "1"},
		{-1, "-1"},
		{complex(0, 1), "1i"},
		{complex(SqrtHalf, 0), "1/√2"},
		{complex(0.5, 0), "1/2"},
		{complex(0, -0.5), "-1/2i"},
		{complex(SqrtHalf, SqrtHalf), "e^(iπ/4)"},
		{complex(0.25, 0.25), "0.25+0.25i"},
		{complex(0.25, -0.25), "0.25-0.25i"},
	}
	for _, c := range cases {
		if got := FormatComplex(c.in); got != c.want {
			t.Errorf("FormatComplex(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
