package perf

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
)

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB. Where
// /proc is unavailable it falls back to the memory the Go runtime obtained
// from the OS.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			fields := bytes.Fields(sc.Bytes())
			if len(fields) >= 2 && string(fields[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(fields[1]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS frees what input generation and the oracle left behind and
// restarts the peak: after a collection that returns free memory to the OS,
// writing "5" to /proc/self/clear_refs sets VmHWM to the current RSS, so
// peak_rss_mb covers only what runs after the call. Where /proc is
// unavailable the write fails and the peak keeps the earlier work.
func resetPeakRSS() {
	debug.FreeOSMemory() // collects, then returns free pages
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeSnapshot is the slice of Go runtime state the ledger reports as
// per-solve deltas around a timed loop.
type runtimeSnapshot struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func takeRuntimeSnapshot() runtimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(sample)
	snap := runtimeSnapshot{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = sample[0].Value.Float64()
	}
	return snap
}

// setRuntimeDeltas records the runtime.* metrics: allocation, GC cycles and
// GC CPU time per operation between two snapshots.
func (r *run) setRuntimeDeltas(before, after runtimeSnapshot, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	r.set("runtime.alloc_mb_per_solve", float64(after.allocBytes-before.allocBytes)/(1<<20)/n)
	r.set("runtime.gc_cycles_per_solve", float64(after.gcCycles-before.gcCycles)/n)
	r.set("runtime.gc_cpu_s_per_solve", (after.gcCPU-before.gcCPU)/n)
}
