package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples a reported tail percentile must keep
// beyond it; a tail estimated from fewer is noise.
const minBeyond = 10

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || s[lo] == s[hi] {
		return s[lo] // also keeps +Inf (failed requests) from becoming NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samplesFor is the sample count a q-quantile needs to keep minBeyond
// samples beyond it.
func samplesFor(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// tail returns the q-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples keeps %.1f beyond it, want >= %d",
			q*100, len(xs), beyond, minBeyond)
	}
	return quantile(xs, q), nil
}

// A closed loop with a cyclic stream is measured in windows of whole
// cycles, so every window holds the same mix of operation shapes. Other
// tenants of a shared host slow it in bursts of a few seconds, which slow
// every operation of the windows they fall in; the time metrics therefore
// come from the interquartile windows by pace: trimFrac of the windows are
// dropped at each end, the slowest and the fastest alike.
const trimFrac = 0.25

// keptWindows is how many of n windows the trimming keeps.
func keptWindows(n int) int { return n - 2*int(trimFrac*float64(n)) }

// windowed collects a closed loop's operations for windowStats.
type windowed struct {
	per   int     // operations per window: whole cycles of the stream
	q     float64 // tail quantile
	durs  []time.Duration
	units []int     // work each operation completed, for the rate
	lat   []float64 // the latency samples the percentiles are taken over
}

func (w *windowed) add(d time.Duration, units int, lat float64) {
	w.durs = append(w.durs, d)
	w.units = append(w.units, units)
	w.lat = append(w.lat, lat)
}

// short reports whether the loop must go on: to the end of the current
// window, or until the kept windows hold enough samples for the tail.
func (w *windowed) short() bool {
	n := len(w.lat)
	return n%w.per != 0 || keptWindows(n/w.per)*w.per < samplesFor(w.q)
}

// windowStats is what the kept windows of a run measure.
type windowStats struct {
	p50, tail float64 // latency percentiles over the kept operations
	perSec    float64 // work units completed per second of kept wall time
	windows   int
	kept      int
}

func (w *windowed) stats() (windowStats, error) {
	n := len(w.lat) / w.per
	type win struct {
		lo int
		d  time.Duration
	}
	wins := make([]win, n)
	for i := range wins {
		wins[i].lo = i * w.per
		for _, d := range w.durs[i*w.per : (i+1)*w.per] {
			wins[i].d += d
		}
	}
	sort.SliceStable(wins, func(a, b int) bool { return wins[a].d < wins[b].d })
	k := (n - keptWindows(n)) / 2
	var (
		lat   []float64
		units int
		d     time.Duration
	)
	for _, x := range wins[k : n-k] {
		lat = append(lat, w.lat[x.lo:x.lo+w.per]...)
		for _, u := range w.units[x.lo : x.lo+w.per] {
			units += u
		}
		d += x.d
	}
	t, err := tail(lat, w.q)
	return windowStats{p50: median(lat), tail: t, perSec: float64(units) / d.Seconds(),
		windows: n, kept: n - 2*k}, err
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is num/den, 0 when den is 0 (a layer the workload never reached).
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// A workload's set-up runs at least setupMinReps times and until
// setupBudget is spent (at most setupMaxReps); setup_s is the median, so
// one slow set-up does not move it, and a cheap set-up is sampled often
// enough for its median to settle.
const (
	setupMinReps = 5
	setupMaxReps = 51
	setupBudget  = time.Second
)

// timeSetup runs setup repeatedly and returns the last instance and the
// median set-up time in seconds. Every earlier instance is released with
// discard before the next set-up starts.
func timeSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		cur   T
		times []float64
		spent time.Duration
	)
	for i := 0; i < setupMaxReps && (i < setupMinReps || spent < setupBudget); i++ {
		if i > 0 {
			discard(cur)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		dt := time.Since(t0)
		if err != nil {
			return cur, 0, fmt.Errorf("set-up: %w", err)
		}
		spent += dt
		times = append(times, dt.Seconds())
		cur = v
	}
	return cur, median(times), nil
}

// warmFor is how long plan-cold and horizon run their operation untimed
// before they measure, so the heap, the caches and the CPU clock have
// settled when timing starts.
const warmFor = 2 * time.Second

// warmUp calls step until warmFor has passed or step fails.
func warmUp(step func() error) error {
	for start := time.Now(); time.Since(start) < warmFor; {
		if err := step(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocObjects is the cumulative count of heap-allocated objects.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssEvery is how often sampleRSS reads the resident set.
const rssEvery = 100 * time.Millisecond

// sampleRSS samples the process's resident set every rssEvery until the
// returned stop is called; stop waits for the sampler to end and returns
// the median sample in MiB. The median, unlike the high-water mark, is not
// set by a single garbage-collection overshoot.
func sampleRSS() (stop func() float64) {
	var (
		samples = []float64{rssMB()}
		quit    = make(chan struct{})
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				samples = append(samples, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return median(append(samples, rssMB()))
	}
}

// rssMB is the process's resident set (VmRSS) in MiB; off Linux it falls
// back to the memory the Go runtime obtained from the OS.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
