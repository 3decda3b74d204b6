package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"div/internal/obs"
)

// cpuSeconds returns the process's user+sys CPU time. It counts every
// goroutine, the pool workers and the garbage collector included, which
// is what a width-2 run costs the machine.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	b, ok := obs.ReadPeakRSS()
	if !ok {
		return math.NaN()
	}
	return float64(b) / (1 << 20)
}

// settle collects garbage and returns freed pages to the OS, so a timed
// phase neither pays for the previous phase's garbage nor inherits its
// heap growth.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// clock brackets one timed phase in wall and CPU time.
type clock struct {
	wall time.Time
	cpu  float64
}

func startClock() clock { return clock{wall: time.Now(), cpu: cpuSeconds()} }

// stop returns the wall and CPU seconds since the clock started.
func (c clock) stop() (wall, cpu float64) {
	return time.Since(c.wall).Seconds(), cpuSeconds() - c.cpu
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// repCount turns a run length into a whole number of repetitions of a
// phase that nominally lasts repSeconds: a pure function of the
// command line, so every run of one seed does the same work.
func repCount(seconds, repSeconds float64, min int) int {
	n := int(seconds / repSeconds)
	if n < min {
		n = min
	}
	return n
}
