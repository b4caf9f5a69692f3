//go:build !ddpoison

package web

const ddPoison = false
