package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// selfCPU is the user+system CPU time this process has used, to the
// microsecond (/proc/<pid>/stat counts in 10 ms ticks).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns VmHWM, the process's peak resident set, in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runtimeSample is the Go runtime's own account of this process.
type runtimeSample struct {
	at       time.Time
	cpu      time.Duration // process CPU from /proc
	allocB   float64       // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds
	totalCPU float64       // cumulative CPU seconds the runtime accounts
	idleCPU  float64       // of which idle
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{at: time.Now(), cpu: selfCPU(), allocB: v(0), gcCPU: v(1)}
}

// gcTrace collects the GC CPU a child process reports with GODEBUG=gctrace=1
// on its standard error, timestamped as the lines arrive.
type gcTrace struct {
	mu     sync.Mutex
	events []gcEvent
}

type gcEvent struct {
	at    time.Time
	cpuMs float64
}

// consume reads r to EOF. Lines that are not GC traces are dropped.
func (g *gcTrace) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if ms, ok := parseGCTrace(sc.Text()); ok {
			g.mu.Lock()
			g.events = append(g.events, gcEvent{at: time.Now(), cpuMs: ms})
			g.mu.Unlock()
		}
	}
}

// cpuMsBetween sums the GC CPU of the cycles reported in [from, to).
func (g *gcTrace) cpuMsBetween(from, to time.Time) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ms float64
	for _, e := range g.events {
		if !e.at.Before(from) && e.at.Before(to) {
			ms += e.cpuMs
		}
	}
	return ms
}

// parseGCTrace reads the CPU part of one gctrace line,
//
//	gc 7 @1.2s 3%: 0.02+1.1+0.01 ms clock, 0.05+0.3/0.9/1.4+0.02 ms cpu, ...
//
// and returns the GC CPU: stop-the-world sweep termination, assist,
// background and stop-the-world mark termination. Idle-time marking (the
// third slash field) uses otherwise idle processors and is left out.
func parseGCTrace(line string) (float64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	_, rest, ok := strings.Cut(line, "ms clock, ")
	if !ok {
		return 0, false
	}
	cpu, _, ok := strings.Cut(rest, " ms cpu")
	if !ok {
		return 0, false
	}
	parts := strings.Split(cpu, "+")
	if len(parts) != 3 {
		return 0, false
	}
	mark := strings.Split(parts[1], "/")
	if len(mark) != 3 {
		return 0, false
	}
	var total float64
	for _, s := range []string{parts[0], mark[0], mark[1], parts[2]} {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, false
		}
		total += v
	}
	return total, true
}

// hostCPU reads the all-CPU line of /proc/stat: the ticks spent in every
// state from user to steal, and the ticks the hypervisor gave to other
// guests (steal).
func hostCPU() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
