package msoauto

import "testing"

// TestSetFreeLimit pins the representative limit of set-free formulas: the
// largest size whose size^rank stays within 40^4, never below 40.
func TestSetFreeLimit(t *testing.T) {
	for _, tc := range []struct{ rank, want int }{
		{0, 2560000}, {1, 2560000}, {2, 1600}, {3, 136}, {4, 40}, {5, 40}, {9, 40},
	} {
		if got := setFreeLimit(tc.rank); got != tc.want {
			t.Errorf("setFreeLimit(%d) = %d, want %d", tc.rank, got, tc.want)
		}
	}
}
