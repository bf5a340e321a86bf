//go:build !race

// Package testrace tells tests whether they run under the race detector,
// whose instrumentation allocates: allocation budgets skip themselves there.
package testrace

// Enabled reports whether the race detector is compiled in.
const Enabled = false
