//go:build !linux

package netsim

// madviseHuge is a no-op: transparent huge pages are a Linux advice.
func madviseHuge([]byte) {}
