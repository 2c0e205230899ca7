package main

import (
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF on a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}

// refSink keeps hostRef's loop from being optimised away.
var refSink uint64

// hostRef times a fixed pure-Go integer loop. It does the same work on
// every call, so a change in its time is a change in the host, not in
// the program.
func hostRef() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return time.Since(t0).Seconds()
}
