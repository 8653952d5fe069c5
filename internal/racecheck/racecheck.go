// Package racecheck exposes whether the race detector is compiled in, so
// testing.AllocsPerRun zero-allocation guards can skip under -race (the
// detector's instrumentation perturbs allocation counts; the dedicated CI
// hot-path job runs the guards without it), and so internal/tensor runs its
// Go loops rather than its assembly, whose loads and stores the detector
// cannot see.
package racecheck

// Enabled reports whether this build includes the race detector.
const Enabled = enabled
