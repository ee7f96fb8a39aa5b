package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports; the kernel exports it to
// userspace as a constant, not a tunable.
const clockTicks = 100

// procUsage is what the benchmark reads about one process from /proc:
// CPU time (user + system) and bytes handed to write(2)-family calls.
type procUsage struct {
	CPUms  float64
	WriteB int64 // wchar: state files and sockets alike
}

func (u procUsage) sub(o procUsage) procUsage {
	return procUsage{CPUms: u.CPUms - o.CPUms, WriteB: u.WriteB - o.WriteB}
}

// parseStatCPU returns utime+stime of a /proc/<pid>/stat line in
// milliseconds. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command-name terminator")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want ≥13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: cpu time %q: %w", s, err)
		}
		ticks += v
	}
	return float64(ticks) * 1000 / clockTicks, nil
}

// parseIOWchar returns the wchar counter of a /proc/<pid>/io file.
func parseIOWchar(data []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == "wchar" {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc io: wchar %q: %w", v, err)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("proc io: no wchar line")
}

// parseCPUModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" when the kernel reports none (some non-x86 hosts).
func parseCPUModel(data []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// readUsage reads the CPU time and write volume of process pid ("self"
// for this process).
func readUsage(pid string) (procUsage, error) {
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	cpu, err := parseStatCPU(stat)
	if err != nil {
		return procUsage{}, err
	}
	io, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return procUsage{}, err
	}
	w, err := parseIOWchar(io)
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{CPUms: cpu, WriteB: w}, nil
}

// readUsages sums readUsage over pids.
func readUsages(pids []int) (procUsage, error) {
	var sum procUsage
	for _, pid := range pids {
		u, err := readUsage(strconv.Itoa(pid))
		if err != nil {
			return procUsage{}, err
		}
		sum.CPUms += u.CPUms
		sum.WriteB += u.WriteB
	}
	return sum, nil
}

// stealPct is the share of CPU time the hypervisor took from this
// machine between two /proc/stat readings, in percent; -1 when either
// cannot be parsed. It tells a noisy-neighbour run from a slow program.
func stealPct(before, after []byte) float64 {
	a, okA := cpuTicks(before)
	b, okB := cpuTicks(after)
	if !okA || !okB {
		return -1
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return -1
	}
	return float64(b[7]-a[7]) * 100 / float64(total)
}

// cpuTicks parses the first eight counters of the aggregate "cpu" line
// of /proc/stat: user nice system idle iowait irq softirq steal.
func cpuTicks(stat []byte) ([8]int64, bool) {
	var t [8]int64
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	for i := range t {
		v, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return t, false
		}
		t[i] = v
	}
	return t, true
}
