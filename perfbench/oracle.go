package main

import (
	"fmt"
	"math"
)

// boundSlack is the relative slack the repository's own bound tests allow
// for floating-point rounding in the codecs.
const boundSlack = 1e-9

// checkBound is the benchmark's error-bound oracle: every reconstructed
// value must lie within the pointwise relative bound eps of its raw value,
// |raw−recon| ≤ eps·|raw|, with a raw 0 allowed an absolute error of eps
// (the convention of Series.MaxRelError). eps = 0 demands exact equality,
// the lossless contract.
//
// Unlike Series.MaxRelError it does not let NaN slip through a comparison:
// a NaN or ±Inf reconstruction of a finite raw value is a violation, and a
// non-finite raw value passes only when reproduced exactly.
func checkBound(raw, recon []float64, eps float64) error {
	if len(raw) != len(recon) {
		return fmt.Errorf("reconstructed %d values, want %d", len(recon), len(raw))
	}
	limit := eps * (1 + boundSlack)
	for i, v := range raw {
		w := recon[i]
		if isBad(v) {
			if v == w || (math.IsNaN(v) && math.IsNaN(w)) {
				continue
			}
			return fmt.Errorf("value %d: raw %v reconstructed as %v", i, v, w)
		}
		if isBad(w) {
			return fmt.Errorf("value %d: finite raw %v reconstructed as %v", i, v, w)
		}
		d := math.Abs(v - w)
		if av := math.Abs(v); av > 0 {
			d /= av
		}
		// Written so that a NaN error can only fail.
		if !(d <= limit) {
			return fmt.Errorf("value %d: raw %v reconstructed as %v, error %.3g over bound %v", i, v, w, d, eps)
		}
	}
	return nil
}
