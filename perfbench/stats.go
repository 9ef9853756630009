package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p95 over 60 samples rests on three values, so it is
// reported as the highest percentile that still has ten behind it.
const minTail = 10

// tailPercentile returns the nearest-rank p-quantile of xs, lowered to
// the highest quantile with at least minTail samples beyond it when xs
// is too short for p. It returns the value, the quantile actually used
// and the sample count. With minTail or fewer samples it falls back to
// the median.
func tailPercentile(xs []float64, p float64) (v, used float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, p, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	used = p
	if maxP := float64(n-minTail) / float64(n); used > maxP {
		used = maxP
	}
	if used < 0.5 {
		used = 0.5
	}
	return s[rankIndex(n, used)], used, n
}

// rankIndex is the zero-based nearest-rank index of quantile p in n
// sorted samples: the ceil(p·n)-th smallest.
func rankIndex(n int, p float64) int {
	// The epsilon keeps float error in p·n (0.95×200 = 190.00000000000003)
	// from pushing an exact rank one sample up.
	k := int(float64(n)*p-1e-9) + 1
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// beyond counts the samples strictly after the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// median returns the middle value (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// procSample is a point-in-time reading of the process counters the
// end-to-end metrics are deltas of.
type procSample struct {
	wall  time.Time
	cpu   time.Duration // user + system
	alloc uint64        // cumulative heap bytes allocated
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// heapAllocs returns the cumulative heap bytes allocated by the process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeState returns live heap bytes and the GC's and the process's
// cumulative CPU seconds as the runtime accounts them.
func runtimeState() (heapLive uint64, gcCPU, totalCPU float64) {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	return s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{wall: time.Now(), cpu: cpu, alloc: heapAllocs()}
}

// procDelta accumulates counter deltas over the timed phases of a run.
type procDelta struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func (d *procDelta) add(from, to procSample) {
	d.wall += to.wall.Sub(from.wall)
	d.cpu += to.cpu - from.cpu
	d.alloc += to.alloc - from.alloc
}

// vmHWM returns the process's peak resident set size in MB, from
// /proc/self/status (0 where the file is unavailable).
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
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
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// runContext is the stamp every report carries, so numbers from
// different machines, commits and settings are never compared blind.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Rounds     int    `json:"rounds"`
	Epochs     int    `json:"epochs"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func newRunContext(workload string, seed int64, seconds int, trace bool) runContext {
	rc := runContext{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	// The go command stamps the VCS state when the benchmark is built
	// inside a git checkout; an exported source tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rc.Commit = s.Value
			case "vcs.modified":
				rc.Dirty = s.Value == "true"
			}
		}
	}
	return rc
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
