//go:build race

package serve

// raceEnabled reports that the race detector is instrumenting this build;
// the allocation guard skips itself under it, since the instrumentation
// allocates on its own.
const raceEnabled = true
