//go:build !ddpoison

package sim

const ddPoison = false
