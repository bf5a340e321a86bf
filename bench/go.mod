// The benchmark is a module of its own so that everything it needs to
// build sits under bench/; the replace points at the program under test.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
