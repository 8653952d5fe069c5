package analysis

import (
	"reflect"
	"testing"
)

// TestClockAllowedPackages pins the clockpolicy allowlist. Growing it would
// quietly exempt a package from the unified-time invariant — timestamps in
// its spans and flight records would stop being exact virtual time — so any
// addition has to be made here, deliberately, too.
func TestClockAllowedPackages(t *testing.T) {
	want := []string{"internal/clock"}
	if got := ClockAllowedPackages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("clockpolicy allowlist = %v, want exactly %v", got, want)
	}
}
