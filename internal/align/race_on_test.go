//go:build race

package align

// raceEnabled reports that this test binary was built with the race
// detector, whose shadow-memory bookkeeping inflates allocation
// counts; allocation-budget tests skip themselves under it.
const raceEnabled = true
