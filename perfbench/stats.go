package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs (0 when empty).
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it: the value with exactly ten larger samples, its
// percentile, and false when there are too few samples (then the
// maximum is returned).
func tail(xs []float64) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100, false
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n), true
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// dirMB sums the sizes of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Steady-phase blocks: a phase with at least minBlocks*blockSamples
// operations is cut into consecutive blocks of about blockSamples, in
// completion order, and tail_ms and req_per_s are the medians of the
// blocks' values. A burst of interference from other tenants of the
// host then moves one block, not the run. Shorter phases are one block.
const (
	blockSamples = 100
	minBlocks    = 3
)

// sample is one steady-phase operation.
type sample struct {
	lat    float64 // seconds from start to reply or error
	end    float64 // seconds from the window's opening to the operation's end
	failed bool
	repeat bool // its exact input was served before in the run
}

// steady holds one workload's steady-phase operations and its window.
type steady struct {
	samples []sample
	window  time.Duration
}

// blocks is how many blocks n operations are cut into.
func blocks(n int) int {
	if k := n / blockSamples; k >= minBlocks {
		return k
	}
	return 1
}

// report sets the steady-phase end-to-end metrics from the samples. A
// failed operation ranks as slower than every success: it is counted at
// the full window length, so failures push p50 and the tail up rather
// than vanishing from the sample.
func (s *steady) report(r *run) {
	sort.SliceStable(s.samples, func(i, j int) bool { return s.samples[i].end < s.samples[j].end })
	var all, warm []float64
	for _, x := range s.samples {
		switch {
		case x.failed:
			all = append(all, s.window.Seconds())
		case x.repeat:
			warm = append(warm, x.lat)
			fallthrough
		default:
			all = append(all, x.lat)
		}
	}
	if len(warm) == 0 {
		warm = all
	}
	n, k := len(all), blocks(len(all))
	var tails, pcts, rates []float64
	full := true
	prev := 0.0
	for b := 0; b < k; b++ {
		lo, hi := b*n/k, (b+1)*n/k
		t, pct, ok := tail(all[lo:hi])
		tails, pcts, full = append(tails, t), append(pcts, pct), full && ok
		succeeded := 0
		for _, x := range s.samples[lo:hi] {
			if !x.failed {
				succeeded++
			}
		}
		end := s.window.Seconds()
		if k > 1 {
			end = s.samples[hi-1].end
		}
		rates = append(rates, ratio(float64(succeeded), end-prev))
		prev = end
	}
	r.set("warm_s", median(warm), "s")
	r.set("p50_ms", 1000*median(all), "ms")
	r.set("tail_ms", 1000*median(tails), "ms")
	r.set("req_per_s", median(rates), "1/s")
	r.note("steady_samples", n)
	r.note("steady_blocks", k)
	r.note("warm_samples", len(warm))
	r.note("tail_percentile", math.Round(median(pcts)*10)/10)
	r.note("tail_has_10_beyond", full)
}
