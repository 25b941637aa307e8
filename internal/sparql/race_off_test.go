//go:build !race

package sparql

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
