package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
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

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs: the
// smallest sample with at least p% of the samples at or below it. +Inf
// samples (failed requests) rank above every finite one.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func isBad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digester hashes outputs field by field; floats by their bits, so a
// digest changes with any change of value, NaN payloads included.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digester) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digester) floats(vs []float64) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.float(v)
	}
}

func (d *digester) bytes(b []byte) {
	d.int(int64(len(b)))
	d.h.Write(b)
}

// digestOf combines digests into one.
func digestOf(parts ...string) string {
	d := newDigester()
	for _, p := range parts {
		d.str(p)
	}
	return d.sum()
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }
