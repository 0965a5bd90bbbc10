package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tickMS is the length of one /proc clock tick; USER_HZ is 100 on every
// Linux this harness targets.
const tickMS = 10.0

// procCPUms returns the process's user+system CPU time so far.
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable cpu times in /proc/%d/stat", pid)
	}
	return (utime + stime) * tickMS, nil
}

// procPeakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTicks returns the machine's stolen and total CPU ticks since boot, from
// the aggregate line of /proc/stat. Steal is time the hypervisor ran someone
// else while this guest wanted the CPU — the noisy-neighbour signal.
func cpuTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseStatHead(string(b))
}

// parseStatHead reads the stolen and total ticks off the first line of
// /proc/stat's text.
func parseStatHead(stat string) (steal, total float64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat head %q", line)
	}
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("unparsable /proc/stat field %q", s)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// selfCPUms returns the harness's own user+system CPU time so far.
func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter brackets a phase with the process and machine counters.
type meter struct {
	pid                 int
	t0                  time.Time
	daemon0, self0      float64
	steal0, totalTicks0 float64
}

func startMeter(pid int) (meter, error) {
	m := meter{pid: pid, self0: selfCPUms()}
	var err error
	if m.daemon0, err = procCPUms(pid); err != nil {
		return m, err
	}
	if m.steal0, m.totalTicks0, err = cpuTicks(); err != nil {
		return m, err
	}
	m.t0 = time.Now()
	return m, nil
}

// reading is what a phase cost.
type reading struct {
	wall       time.Duration
	daemonMS   float64 // daemon user+system CPU
	selfMS     float64 // harness user+system CPU
	stealRatio float64 // stolen ticks over all ticks, machine-wide
}

func (m meter) stop() (reading, error) {
	r := reading{wall: time.Since(m.t0), selfMS: selfCPUms() - m.self0}
	d, err := procCPUms(m.pid)
	if err != nil {
		return r, err
	}
	r.daemonMS = d - m.daemon0
	steal, total, err := cpuTicks()
	if err != nil {
		return r, err
	}
	if total > m.totalTicks0 {
		r.stealRatio = (steal - m.steal0) / (total - m.totalTicks0)
	}
	return r, nil
}
