// Package pool recycles power-of-two arrays across decision-diagram
// packages: the node chunks, unique-table buckets and compute-table
// entries of package dd, and the slot arrays of package cnum's complex
// tables. A finished dd package (dd.Pkg.Close) and every table growth
// hand their arrays back here, and the next package or growth step of
// the same element type and length draws them out again instead of
// asking the Go heap. This follows the chunk reuse of the MQT DD
// package (arXiv 2108.07027), carried across package boundaries.
//
// The pool idiom is the one of dd's node walkers: one sync.Pool per
// power-of-two length, per element type. An array is zeroed when it is
// drawn, where a fresh make zeroes it, and only arrays of the exact
// requested length are handed out, so a recycled array is
// indistinguishable from a new one. Arrays larger than maxBytes are
// left to the garbage collector, so the pools never pin a huge one;
// like every sync.Pool, the pools empty themselves over two collector
// cycles.
package pool

import (
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// maxBytes bounds the size of an array the pools keep: 1 MiB holds the
// largest node chunk (8192 matrix nodes).
const maxBytes = 1 << 20

// classes holds one sync.Pool per power-of-two length: classes[k]
// keeps *[]T of length 1<<k.
type classes [bits.UintSize]sync.Pool

// byType maps an element type to its *classes.
var byType sync.Map

func classesOf[T any]() *classes {
	t := reflect.TypeFor[T]()
	if c, ok := byType.Load(t); ok {
		return c.(*classes)
	}
	c, _ := byType.LoadOrStore(t, new(classes))
	return c.(*classes)
}

// class returns the pool index of an array of n elements of T, and
// false when such an array is not pooled: n is not a power of two, or
// the array is larger than maxBytes.
func class[T any](n int) (int, bool) {
	var zero T
	if n <= 0 || n&(n-1) != 0 || uintptr(n)*unsafe.Sizeof(zero) > maxBytes {
		return 0, false
	}
	return bits.TrailingZeros(uint(n)), true
}

// Get returns a zeroed array of n elements, recycled when the pool of
// that length holds one.
func Get[T any](n int) []T {
	if k, ok := class[T](n); ok {
		if a, _ := classesOf[T]()[k].Get().(*[]T); a != nil {
			clear(*a)
			return *a
		}
	}
	return make([]T, n)
}

// Put hands a to the pool of its length. The caller must drop every
// reference to a: the next Get of that length may return it to anyone.
// Arrays that Get would not hand out (not a power of two, too large, or
// resliced below their capacity) are left to the garbage collector.
func Put[T any](a []T) {
	if k, ok := class[T](len(a)); ok && cap(a) == len(a) {
		classesOf[T]()[k].Put(&a)
	}
}
