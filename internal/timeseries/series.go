// Package timeseries defines the core data model used throughout lossyts:
// regular time series, segments, dataset splits, scalers, and the sliding
// windows consumed by forecasting models.
//
// A regular time series (paper Definition 2) is fully described by its first
// timestamp, a constant sampling interval, and the ordered values; storing it
// that way keeps the model compact and makes timestamp compression trivial.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Point is a single observation: a timestamp (Unix seconds) and a value
// (paper Definition 1).
type Point struct {
	T int64
	V float64
}

// Series is a regular time series: values sampled every Interval seconds
// starting at Start (paper Definition 2).
type Series struct {
	Name     string
	Start    int64 // Unix seconds of the first observation
	Interval int64 // seconds between consecutive observations
	Values   []float64
}

// New returns a Series with the given metadata and values.
//
// The values slice is used directly, NOT copied: the series aliases the
// caller's array, and mutations on either side are visible to both. This
// no-copy contract is what lets dataset generators, payload decoders, and
// Segment views share storage without doubling memory, but it means a
// caller that keeps writing into values after New must not assume the
// series is a snapshot — use Clone (or Append, which always copies) for an
// independent series.
func New(name string, start, interval int64, values []float64) *Series {
	return &Series{Name: name, Start: start, Interval: interval, Values: values}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of observation i.
func (s *Series) TimeAt(i int) int64 { return s.Start + int64(i)*s.Interval }

// At returns observation i as a Point.
func (s *Series) At(i int) Point { return Point{T: s.TimeAt(i), V: s.Values[i]} }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Name: s.Name, Start: s.Start, Interval: s.Interval, Values: v}
}

// Segment returns the sub-series covering observations [i, j)
// (paper Definition 3 uses inclusive timestamps; here the half-open index
// convention is used, matching Go slices). The returned series shares the
// underlying array.
func (s *Series) Segment(i, j int) (*Series, error) {
	if i < 0 || j > len(s.Values) || i > j {
		return nil, fmt.Errorf("timeseries: segment [%d,%d) out of range [0,%d)", i, j, len(s.Values))
	}
	return &Series{
		Name:     s.Name,
		Start:    s.TimeAt(i),
		Interval: s.Interval,
		Values:   s.Values[i:j],
	}, nil
}

// Equal reports whether two series have identical metadata and values.
// NaN values compare equal to NaN so round-trip tests behave sensibly.
func (s *Series) Equal(o *Series) bool {
	if s.Start != o.Start || s.Interval != o.Interval || len(s.Values) != len(o.Values) {
		return false
	}
	for i, v := range s.Values {
		w := o.Values[i]
		if v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// MaxAbsError returns the largest absolute difference between two
// equal-length series, used to verify error bounds.
func (s *Series) MaxAbsError(o *Series) (float64, error) {
	if len(s.Values) != len(o.Values) {
		return 0, errors.New("timeseries: length mismatch")
	}
	var m float64
	for i, v := range s.Values {
		if d := math.Abs(v - o.Values[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// MaxRelError returns the largest pointwise relative error |v-w|/|v|
// between two equal-length series. Points where |v| == 0 contribute their
// absolute error instead (a relative bound requires them to be exact).
// A point that matches exactly, NaN for NaN or infinity for infinity of
// the same sign, contributes 0; any other mismatch involving a non-finite
// value contributes +Inf, so no bound can pass a NaN or infinite
// reconstruction of a finite value, or a finite one of a non-finite value.
func (s *Series) MaxRelError(o *Series) (float64, error) {
	if len(s.Values) != len(o.Values) {
		return 0, errors.New("timeseries: length mismatch")
	}
	var m float64
	for i, v := range s.Values {
		w := o.Values[i]
		if v == w || (math.IsNaN(v) && math.IsNaN(w)) {
			continue
		}
		if !isFinite(v) || !isFinite(w) {
			return math.Inf(1), nil
		}
		d := math.Abs(v - w)
		if av := math.Abs(v); av > 0 {
			d /= av
		}
		if d > m {
			m = d
		}
	}
	return m, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Split divides the series into train/validation/test partitions by the
// given fractions (which must be positive and sum to at most 1; any
// remainder is discarded). The paper uses 70%/10%/20%.
func (s *Series) Split(trainFrac, valFrac, testFrac float64) (train, val, test *Series, err error) {
	if trainFrac <= 0 || valFrac <= 0 || testFrac <= 0 || trainFrac+valFrac+testFrac > 1+1e-9 {
		return nil, nil, nil, fmt.Errorf("timeseries: invalid split fractions %v/%v/%v", trainFrac, valFrac, testFrac)
	}
	n := len(s.Values)
	i := int(float64(n) * trainFrac)
	j := i + int(float64(n)*valFrac)
	k := j + int(float64(n)*testFrac)
	if k > n {
		k = n
	}
	if i == 0 || j <= i || k <= j {
		return nil, nil, nil, fmt.Errorf("timeseries: series too short (%d points) for split", n)
	}
	train, _ = s.Segment(0, i)
	val, _ = s.Segment(i, j)
	test, _ = s.Segment(j, k)
	return train, val, test, nil
}
