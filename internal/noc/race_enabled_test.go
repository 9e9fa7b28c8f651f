//go:build race

package noc

// raceEnabled reports that the race detector is active; its
// instrumentation allocates, so allocation-count assertions do not hold.
const raceEnabled = true
