// Package sysmem reports process memory ceilings for the benchmarks:
// the N=1,000,000 engine runs track peak RSS alongside ns/round, and
// bench/ reports it as peak_rss_mb, so the memory wall is measured,
// not just the time wall.
package sysmem

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// PeakRSSBytes returns the process's peak resident set size in bytes.
// On Linux it reads VmHWM from /proc/self/status (the kernel's
// high-water mark, which survives frees); elsewhere, or if the read
// fails, it falls back to the Go heap's reserved footprint
// (runtime.MemStats.HeapSys), a lower bound that still tracks the
// simulator's dominant cost — the state and message columns.
func PeakRSSBytes() int64 {
	if v, ok := procPeakRSS(); ok {
		return v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapSys)
}

// procPeakRSS parses "VmHWM:  123456 kB" from /proc/self/status.
func procPeakRSS() (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}
