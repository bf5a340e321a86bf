//go:build race

package testrace

// Enabled reports whether the race detector is compiled in.
const Enabled = true
