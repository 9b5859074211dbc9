//go:build race

package service

// raceEnabled reports that the race detector is instrumenting this build;
// the allocation guards skip themselves under it, since the
// instrumentation allocates on its own.
const raceEnabled = true
