//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation slows some code paths far more than others, so relative
// timing bounds are meaningless under it.
const raceEnabled = true
