package pool

import (
	"sync"
	"testing"
)

// TestGetZeroesRecycledArrays checks that a drawn array is zeroed and
// of the requested length whether or not it was recycled.
func TestGetZeroesRecycledArrays(t *testing.T) {
	for round := 0; round < 4; round++ {
		a := Get[uint64](256)
		if len(a) != 256 || cap(a) != 256 {
			t.Fatalf("Get(256): len %d cap %d", len(a), cap(a))
		}
		for i, x := range a {
			if x != 0 {
				t.Fatalf("round %d: slot %d holds %#x, want a zeroed array", round, i, x)
			}
		}
		for i := range a {
			a[i] = ^uint64(i)
		}
		Put(a)
	}
	if a := Get[uint64](100); len(a) != 100 {
		t.Fatalf("Get(100): len %d", len(a))
	}
}

// TestClass checks which arrays the pools keep: power-of-two lengths up
// to maxBytes.
func TestClass(t *testing.T) {
	for _, tc := range []struct {
		n    int
		k    int
		pool bool
	}{
		{0, 0, false},
		{1, 0, true},
		{3, 0, false},
		{256, 8, true},
		{1 << 17, 17, true}, // 1 MiB of uint64
		{1 << 18, 0, false}, // 2 MiB: left to the collector
	} {
		k, ok := class[uint64](tc.n)
		if ok != tc.pool || (ok && k != tc.k) {
			t.Errorf("class[uint64](%d) = %d, %v; want %d, %v", tc.n, k, ok, tc.k, tc.pool)
		}
	}
	type node [128]byte // the size of a matrix node
	if _, ok := class[node](8192); !ok {
		t.Error("a full matrix-node chunk (8192 × 128 B) is not pooled")
	}
}

// TestConcurrentGetPut has several goroutines dirty, return and redraw
// arrays of a few lengths at once: every drawn array must be zeroed
// and of its requested length. Run it under -race.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 64 << (i % 4)
				a := Get[*int](n)
				if len(a) != n {
					t.Errorf("Get(%d): len %d", n, len(a))
					return
				}
				for j := range a {
					if a[j] != nil {
						t.Errorf("Get(%d): slot %d not zeroed", n, j)
						return
					}
					a[j] = &g
				}
				Put(a)
			}
		}(g)
	}
	wg.Wait()
}
