package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint identifies what produced a result, so results from
// different hosts, kernels or worker counts are never compared
// silently.
type fingerprint struct {
	CPU            string `json:"cpu"`
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Kernel         string `json:"kernel"`
	Ranks          int    `json:"ranks"`
	WorkersPerRank int    `json:"workers_per_rank"`
	Workload       string `json:"workload"`
	Seed           uint64 `json:"seed"`
	Particles      int    `json:"particles"`
	Trace          bool   `json:"trace"`
	Seconds        int    `json:"seconds"`
	StepSamples    int    `json:"step_samples"`
}

func newFingerprint(w *workload, o options) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Ranks:      w.ranks,
		Workload:   w.name,
		Seed:       o.seed,
		Trace:      o.trace,
		Seconds:    o.seconds,
	}
}

// cpuModel returns the CPU model name, or the architecture where
// /proc/cpuinfo does not exist.
func cpuModel() string {
	v, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		return runtime.GOARCH
	}
	return v
}

// cpuTicks reads the host's stolen and total CPU time, in ticks, from
// the first line of /proc/stat; both are 0 where that file does not
// exist.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest
	// columns after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB of
// 10^6 bytes.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return kb * 1024 / 1e6, nil
}

// procField returns the value of the first "key: value" line of a
// /proc file.
func procField(path, key string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("%s has no %q line", path, key)
}
