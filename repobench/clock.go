package main

import "time"

// epoch is the zero of mono's timeline, fixed by its first call.
var epoch time.Time

// mono returns monotonic wall-clock nanoseconds since its first call.
// It is the benchmark's only wall-clock read, so every timing in the
// benchmark shares one clock and one lint exemption.
func mono() int64 {
	now := time.Now() //scoop:allow walltime benchmark timing only; no reading ever reaches a simulation
	if epoch.IsZero() {
		epoch = now
	}
	return int64(now.Sub(epoch))
}
