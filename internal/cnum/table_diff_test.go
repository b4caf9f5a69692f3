package cnum

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// diffGen draws lookup inputs that stress the table's bucketing: exact
// bucket edges, values just across an edge, values a few ulps around
// a bucket midpoint and around the 1/64 margins where a miss switches
// between probing one neighbour and both, near-duplicates of earlier
// inputs that share or straddle their buckets, signed zeros,
// subnormals, magnitudes up to 1e6 (past 2^40 buckets at the default
// tolerance, where every miss probes both neighbours) and exact
// repeats.
type diffGen struct {
	rng  *rand.Rand
	tol  float64
	hist []float64
}

func (g *diffGen) earlier() float64 {
	if len(g.hist) == 0 {
		return 0
	}
	return g.hist[g.rng.Intn(len(g.hist))]
}

// bucketIndex draws a bucket index, mostly near zero where DD weights
// live, sometimes anywhere up to magnitude 1e6.
func (g *diffGen) bucketIndex() float64 {
	if g.rng.Intn(4) == 0 {
		return math.Floor((g.rng.Float64()*2 - 1) * math.Pow(10, g.rng.Float64()*6) / (2 * g.tol))
	}
	return float64(g.rng.Intn(1<<20) - 1<<19)
}

func (g *diffGen) next() float64 {
	var v float64
	switch g.rng.Intn(11) {
	case 0: // bucket edge
		v = g.bucketIndex() * 2 * g.tol
	case 1: // one and a half tolerances off an edge
		v = g.bucketIndex()*2*g.tol + float64(2*g.rng.Intn(2)-1)*1.5*g.tol
	case 2, 3: // near-duplicate of an earlier input
		v = g.earlier() + (g.rng.Float64()*2-1)*2.5*g.tol
	case 4: // signed zero or subnormal
		switch g.rng.Intn(3) {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = math.Float64frombits(g.rng.Uint64() & (1<<52 - 1))
		default:
			v = -math.Float64frombits(g.rng.Uint64() & (1<<52 - 1))
		}
	case 5: // any magnitude from 1e-12 to 1e6
		v = (g.rng.Float64()*2 - 1) * math.Pow(10, g.rng.Float64()*18-12)
	case 6, 7: // exact repeat
		v = g.earlier()
	case 8: // a DD-style amplitude: a phase component times a power of 1/√2
		v = math.Cos(float64(g.rng.Intn(64))*math.Pi/32) * math.Pow(SqrtHalf, float64(g.rng.Intn(12)))
	case 9: // a few ulps around a bucket midpoint or a 1/64 margin
		frac := [...]float64{0.5, 0.5 - 1.0/64, 0.5 + 1.0/64}[g.rng.Intn(3)]
		v = (g.bucketIndex() + frac) * 2 * g.tol
		dir := math.Inf(2*g.rng.Intn(2) - 1)
		for n := g.rng.Intn(4); n > 0; n-- {
			v = math.Nextafter(v, dir)
		}
	default:
		v = g.rng.Float64()*2 - 1
	}
	if len(g.hist) < 1<<12 {
		g.hist = append(g.hist, v)
	} else {
		g.hist[g.rng.Intn(len(g.hist))] = v
	}
	return v
}

// checkSame fails unless both tables report the same statistics and
// size.
func checkSame(t testing.TB, got *Table, want *refTable) {
	t.Helper()
	gl, gh := got.Stats()
	wl, wh := want.Stats()
	if gl != wl || gh != wh {
		t.Fatalf("Stats() = (%d, %d), reference (%d, %d)", gl, gh, wl, wh)
	}
	if got.Size() != want.Size() {
		t.Fatalf("Size() = %d, reference %d", got.Size(), want.Size())
	}
}

// lookupBoth canonicalizes v in both tables and fails unless the
// results are bit-identical.
func lookupBoth(t testing.TB, got *Table, want *refTable, v float64) {
	t.Helper()
	g, w := got.LookupReal(v), want.LookupReal(v)
	if math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("LookupReal(%v [%#x]) = %v [%#x], reference %v [%#x]",
			v, math.Float64bits(v), g, math.Float64bits(g), w, math.Float64bits(w))
	}
}

// TestTableMatchesReference checks the flat table against the
// slice-per-bucket table it replaced: every lookup must return the
// same bits, and Stats and Size must agree throughout. Odd seeds use a
// coarse tolerance, which crowds many values into each bucket.
func TestTableMatchesReference(t *testing.T) {
	const seeds, lookups = 40, 200_000
	for seed := int64(1); seed <= seeds; seed++ {
		tol := DefaultTolerance
		if seed%2 == 1 {
			tol = 1e-4
		}
		got, want := NewTableTol(tol), newRefTableTol(tol)
		g := &diffGen{rng: rand.New(rand.NewSource(seed)), tol: tol}
		for i := 0; i < lookups; i++ {
			lookupBoth(t, got, want, g.next())
			if i%4096 == 0 {
				checkSame(t, got, want)
			}
		}
		checkSame(t, got, want)
	}
}

// TestLookupInfExactMatch: |Inf−Inf| is NaN, so a tolerance test never
// matches a stored infinity. The table matches ±Inf exactly instead,
// so repeated lookups hit and the table stays bounded. (The reference
// table added an entry per call; this is the one documented
// difference between the two.)
func TestLookupInfExactMatch(t *testing.T) {
	tab := NewTable()
	base := tab.Size()
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		size := tab.Size()
		_, hits := tab.Stats()
		for i := 0; i < 1000; i++ {
			if got := tab.LookupReal(inf); got != inf {
				t.Fatalf("LookupReal(%v) = %v", inf, got)
			}
		}
		if grown := tab.Size() - size; grown > 1 {
			t.Fatalf("1000 lookups of %v grew the table by %d entries", inf, grown)
		}
		if _, h := tab.Stats(); h-hits != 999 {
			t.Fatalf("%d of 1000 lookups of %v hit, want 999", h-hits, inf)
		}
	}
	if got := tab.Size() - base; got != 2 {
		t.Fatalf("±Inf occupy %d entries, want 2", got)
	}
	// Finite values are never identified with an infinity.
	if got := tab.LookupReal(math.MaxFloat64); got != math.MaxFloat64 {
		t.Fatalf("LookupReal(MaxFloat64) = %v", got)
	}
}

// FuzzLookupReal feeds arbitrary finite values, each followed by
// near-duplicates at ±0.9, ±1.5 and ±2.5 tolerances, to the flat table
// and the reference, under the default and a coarse tolerance.
func FuzzLookupReal(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(SqrtHalf)))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(2e-10)))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-3e-4)))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1)) // smallest subnormal
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tol := range []float64{DefaultTolerance, 1e-4} {
			got, want := NewTableTol(tol), newRefTableTol(tol)
			for b := data; len(b) >= 8; b = b[8:] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(b))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				for _, d := range []float64{0, 0.9, -0.9, 1.5, -1.5, 2.5, -2.5} {
					if w := v + d*tol; !math.IsInf(w, 0) {
						lookupBoth(t, got, want, w)
					}
				}
			}
			checkSame(t, got, want)
		}
	})
}

// TestGrowKeepsWrappedClusterOrder places two representatives of one
// bucket in a probe cluster that wraps around the end of the slot
// array, grows the table, and looks up a value within tolerance of
// both: the older one must still answer, as in the reference. A rehash
// that started at slot 0 would re-insert the wrapped tail first and
// swap them.
func TestGrowKeepsWrappedClusterOrder(t *testing.T) {
	const tol = 1e-4
	got, want := NewTableTol(tol), newRefTableTol(tol)
	last := got.mask
	key := int64(1)
	for hashInt64(key)&last != last {
		key++
	}
	if got.slots[last] != 0 {
		t.Fatalf("last slot already taken by %v", decode(got.slots[last]))
	}
	base := float64(key) * 2 * tol
	older, newer := base+0.2*tol, base+1.8*tol
	lookupBoth(t, got, want, older)
	lookupBoth(t, got, want, newer)
	if i, _ := got.find(key, newer); i >= last || decode(got.slots[i]) != newer {
		t.Fatalf("second value of the bucket did not wrap to the array start (slot %d)", i)
	}
	size := len(got.slots)
	for v := -1e3; len(got.slots) == size; v -= 1 {
		lookupBoth(t, got, want, v)
	}
	q := base + tol
	if c, w := got.LookupReal(q), want.LookupReal(q); c != older || w != older {
		t.Fatalf("after growth, LookupReal(%v) = %v, reference %v, want the older representative %v", q, c, w, older)
	}
	checkSame(t, got, want)
}

// TestFindChecksBucket places a value of bucket key+1 ahead of a value
// of bucket key in one probe cluster (the two buckets hash to the same
// home slot) and looks up a value within tolerance of both: the own
// bucket must answer, as in the reference, although the scan meets the
// neighbour's value first.
func TestFindChecksBucket(t *testing.T) {
	const tol = 1e-4
	got, want := NewTableTol(tol), newRefTableTol(tol)
	key := int64(1)
	for hashInt64(key)&got.mask != hashInt64(key+1)&got.mask {
		key++
	}
	width := 2 * tol
	neighbour := (float64(key) + 1.3) * width
	own := (float64(key) + 0.7) * width
	lookupBoth(t, got, want, neighbour)
	lookupBoth(t, got, want, own)
	q := (float64(key) + 0.9) * width
	if c := got.LookupReal(q); c != own {
		t.Fatalf("LookupReal(%v) = %v, want the own-bucket representative %v", q, c, own)
	}
	want.LookupReal(q)
	checkSame(t, got, want)
}
