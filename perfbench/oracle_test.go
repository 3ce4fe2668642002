package main

import (
	"math"
	"testing"
)

func TestCheckBound(t *testing.T) {
	raw := []float64{10, -4, 0, 2.5}
	for _, tc := range []struct {
		name  string
		raw   []float64
		recon []float64
		eps   float64
		ok    bool
	}{
		{"within bound", raw, []float64{10.5, -4.1, 0.04, 2.5}, 0.05, true},
		{"exact lossless", raw, raw, 0, true},
		{"over bound", raw, []float64{11, -4, 0, 2.5}, 0.05, false},
		{"zero raw gets absolute bound", raw, []float64{10, -4, 0.06, 2.5}, 0.05, false},
		{"lossless off by one ulp", raw, []float64{math.Nextafter(10, 11), -4, 0, 2.5}, 0, false},
		{"NaN reconstruction", raw, []float64{10, math.NaN(), 0, 2.5}, 0.8, false},
		{"+Inf reconstruction", raw, []float64{10, -4, 0, math.Inf(1)}, 0.8, false},
		{"-Inf reconstruction", raw, []float64{math.Inf(-1), -4, 0, 2.5}, 0.8, false},
		{"NaN raw reproduced", []float64{math.NaN(), 1}, []float64{math.NaN(), 1}, 0.1, true},
		{"Inf raw reproduced", []float64{math.Inf(1), 1}, []float64{math.Inf(1), 1}, 0.1, true},
		{"Inf raw changed", []float64{math.Inf(1), 1}, []float64{math.MaxFloat64, 1}, 0.1, false},
		{"short reconstruction", raw, raw[:3], 0.1, false},
	} {
		err := checkBound(tc.raw, tc.recon, tc.eps)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkBound = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
