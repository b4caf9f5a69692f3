//go:build !ddpoison

package verify

const ddPoison = false
