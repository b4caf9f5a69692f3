package cnum

import (
	"fmt"
	"math"
)

// refTable is the slice-per-bucket complex table that Table replaced,
// kept verbatim (bar identifiers) as the reference of the differential
// tests: the flat table must canonicalize every value to exactly what
// this one returns.
//
// The store is an open-addressed hash table over half-open buckets of
// width 2·tol: a value's bucket index is floor(v/(2·tol)), and a
// lookup probes the value's own bucket plus its two neighbours, so any
// stored representative within tol is found.
type refTable struct {
	tol     float64
	inv     float64   // 1/bucket width
	slots   []refSlot // power-of-two open-addressed bucket store
	mask    uint64
	used    int // occupied slots
	lookups uint64
	hits    uint64
}

// refSlot holds one bucket: all canonical representatives whose bucket
// index equals key. Most buckets hold exactly one value.
type refSlot struct {
	key  int64
	vals []float64
}

const refMinSlots = 256

func newRefTableTol(tol float64) *refTable {
	if tol <= 0 {
		panic(fmt.Sprintf("cnum: tolerance must be positive, got %g", tol))
	}
	t := &refTable{
		tol:   tol,
		inv:   1 / (2 * tol),
		slots: make([]refSlot, refMinSlots),
		mask:  refMinSlots - 1,
	}
	// Seed with the values that must be exactly representable so that
	// IsZero/IsOne tests on canonical values are exact comparisons.
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, SqrtHalf, -SqrtHalf} {
		t.LookupReal(v)
	}
	return t
}

// findSlot returns the slot holding bucket key, or the empty slot
// where that bucket would be inserted.
func (t *refTable) findSlot(key int64) *refSlot {
	i := hashInt64(key) & t.mask
	for {
		s := &t.slots[i]
		if s.vals == nil || s.key == key {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot array and rehashes the occupied buckets.
func (t *refTable) grow() {
	old := t.slots
	t.slots = make([]refSlot, 2*len(old))
	t.mask = uint64(len(t.slots)) - 1
	for i := range old {
		if old[i].vals == nil {
			continue
		}
		*t.findSlot(old[i].key) = old[i]
	}
}

func (t *refTable) Stats() (lookups, hits uint64) { return t.lookups, t.hits }

func (t *refTable) LookupReal(v float64) float64 {
	t.lookups++
	if math.IsNaN(v) {
		panic("cnum: NaN cannot be canonicalized")
	}
	key := int64(math.Floor(v * t.inv))
	// The candidate may fall in the bucket of v or a neighbour.
	for _, k := range [3]int64{key, key - 1, key + 1} {
		s := t.findSlot(k)
		if s.vals == nil {
			continue
		}
		for _, c := range s.vals {
			if math.Abs(c-v) <= t.tol {
				t.hits++
				return c
			}
		}
	}
	s := t.findSlot(key)
	if s.vals == nil {
		t.used++
		if 4*t.used > 3*len(t.slots) {
			t.grow()
			s = t.findSlot(key)
		}
		s.key = key
	}
	s.vals = append(s.vals, v)
	return v
}

func (t *refTable) Size() int {
	n := 0
	for i := range t.slots {
		n += len(t.slots[i].vals)
	}
	return n
}
