//go:build race

package logsvc

// raceEnabled reports whether this build is instrumented by the race
// detector. The footprint gates skip under it: instrumentation adds its
// own per-object state, so the heap measures the detector.
const raceEnabled = true
