package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds reports the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reports the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts describe the machine a result was measured on, so spread can
// be traced to the host rather than the code.
type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	L2         string  `json:"l2"`
	L3         string  `json:"l3"`
	StealS     float64 `json:"steal_s"` // CPU time the hypervisor gave others during the run
	LoadAvg    string  `json:"loadavg"`
}

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (-1 where unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// readHost gathers the host facts; stealStart is stealSeconds() at the
// start of the run.
func readHost(stealStart float64) hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		StealS:     -1,
		LoadAvg:    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if s := stealSeconds(); s >= 0 && stealStart >= 0 {
		h.StealS = s - stealStart
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return h
}

// cacheSize reports CPU 0's cache size at the given level from sysfs.
func cacheSize(level int) string {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "unknown"
	}
	for _, e := range ents {
		lv, err := os.ReadFile(dir + e.Name() + "/level")
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if sz, err := os.ReadFile(dir + e.Name() + "/size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}
