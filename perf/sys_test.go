package perf

import (
	"os"
	"runtime"
	"testing"
)

// touchMB allocates mb MiB, writes every page so it is resident, and returns
// the peak RSS while the memory is live.
func touchMB(mb int) float64 {
	buf := make([]byte, mb<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	peak := peakRSSMB()
	runtime.KeepAlive(buf)
	return peak
}

// TestResetPeakRSS checks that peak_rss_mb forgets memory that was freed
// before resetPeakRSS, as the inputs and the oracle are.
func TestResetPeakRSS(t *testing.T) {
	if _, err := os.Stat("/proc/self/clear_refs"); err != nil {
		t.Skip("no /proc/self/clear_refs:", err)
	}
	resetPeakRSS()
	base := peakRSSMB()
	high := touchMB(64)
	if high < base+48 {
		t.Fatalf("peak %.1f MiB after touching 64 MiB over a %.1f MiB base", high, base)
	}
	resetPeakRSS()
	if got := peakRSSMB(); got > high-32 {
		t.Errorf("peak %.1f MiB after the reset, %.1f MiB before it: the freed 64 MiB still counts", got, high)
	}
}
