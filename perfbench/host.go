package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// hostReading is one snapshot of the process and host counters a pass is
// measured with; diff two readings to meter the window between them.
type hostReading struct {
	// cpu is process user+sys time in seconds.
	cpu float64
	// steal is the host's cumulative steal time (all CPUs) in seconds,
	// from /proc/stat; zero where that file is unreadable.
	steal float64

	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	// schedLat is the cumulative scheduler-latency histogram.
	schedLat *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readHost() hostReading {
	var h hostReading
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	h.steal = readSteal()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	h.allocBytes = float64(s[0].Value.Uint64())
	h.gcCycles = float64(s[1].Value.Uint64())
	h.gcCPU = s[2].Value.Float64()
	h.schedLat = s[3].Value.Float64Histogram()
	return h
}

// heapAllocBytes is the cumulative heap allocation, read at workflow-op
// boundaries by the span collector.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// readSteal returns the aggregate "cpu" line's steal column in seconds.
func readSteal() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseFloat(fields[8], 64)
		if err != nil {
			return 0
		}
		return ticks / 100 // USER_HZ
	}
	return 0
}

// schedP99Ms is the 99th percentile of the scheduler latencies recorded
// between two cumulative histograms, in milliseconds (the upper edge of the
// bucket holding it).
func schedP99Ms(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var seen uint64
	for i, c := range delta {
		if seen += c; seen >= want {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}

// hostInfo is the host record printed with every result.
type hostInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealS     float64 `json:"steal_s"`
}

func currentHost(stealSeconds float64) hostInfo {
	return hostInfo{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), StealS: stealSeconds,
	}
}
