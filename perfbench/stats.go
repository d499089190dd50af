package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for none.
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

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first. Reporting on a fixed ladder keeps runs of different
// lengths comparable.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency figure: the value at percentile P, with Beyond
// samples above it out of N.
type tail struct {
	P      float64
	Value  float64
	Beyond int
	N      int
}

// tailOf picks the highest ladder percentile that leaves at least
// minBeyond samples beyond it. The value at percentile p is the
// ceil(p·n/100)-th smallest sample, so n − ceil(p·n/100) samples lie
// beyond it. ok is false when even the lowest rung leaves fewer than
// minBeyond samples, i.e. the run is too short to state a tail.
func tailOf(xs []float64) (t tail, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p * float64(n) / 100))
		if rank < 1 {
			rank = 1
		}
		if beyond := n - rank; beyond >= minBeyond {
			return tail{P: p, Value: s[rank-1], Beyond: beyond, N: n}, true
		}
	}
	return tail{N: n}, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
