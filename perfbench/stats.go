package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method "inclusive"). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the percentile a latency tail is reported at: the
// highest of p99, p98, p97, p95 and p90 with at least ten samples beyond
// it, else p50.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.98, 0.97, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// latencySummary is a latency sample reduced to the figures the report
// carries, with the count behind them.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_percentile"`
	Max     float64 `json:"max_ms"`
}

func summarize(latMs []float64, tailQ float64) latencySummary {
	if len(latMs) == 0 {
		return latencySummary{}
	}
	return latencySummary{
		Samples: len(latMs),
		P50:     quantile(latMs, 0.5),
		Tail:    quantile(latMs, tailQ),
		TailPct: tailQ * 100,
		Max:     quantile(latMs, 1),
	}
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU is the user+system CPU this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the CPU fields of /proc/<pid>/stat (USER_HZ,
// 100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU of process pid, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the last
	// ')' are space-separated, utime and stime being fields 14 and 15.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMiB is the VmHWM (peak resident set) of process pid in MiB; pass
// "self" for this process.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
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
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
