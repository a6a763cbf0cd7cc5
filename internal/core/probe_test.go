package core

import "testing"

// TestPropertyScanWide sweeps a contiguous band of generator seeds beyond
// the quick.Check sample, as a regression corpus for the dependence shapes
// that historically broke the transformation (stale conditional captures,
// output-dependence split variables, live-in snapshots, stub cascades).
func TestPropertyScanWide(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		if err := checkEquivalence(seed); err != nil {
			t.Fatal(err)
		}
	}
}
