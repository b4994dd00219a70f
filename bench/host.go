package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is the machine fingerprint every report carries: a timing means
// nothing without the CPU count and model it was taken on.
type host struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLCBytes   int64  `json:"llc_bytes"`
}

func hostInfo() host {
	return host{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCBytes:   llcBytes(),
	}
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

// defaultLLC stands in when sysfs does not describe the caches (some
// sandboxes hide them): larger than any last-level cache this is likely to
// meet, so the stream arrays still leave it.
const defaultLLC = 64 << 20

// llcBytes returns the size of the largest cache of CPU 0.
func llcBytes() int64 {
	var best int64
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	if best == 0 {
		return defaultLLC
	}
	return best
}

// steadyMiB is the Go heap and stacks in use after two forced collections:
// the first frees what the timed section left, the second what finalizers
// and pool clearing released.
func steadyMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse+ms.StackInuse) / (1 << 20)
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
