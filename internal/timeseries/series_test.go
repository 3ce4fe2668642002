package timeseries

import (
	"math"
	"testing"
	"testing/quick"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

func TestSeriesBasics(t *testing.T) {
	s := New("x", 1000, 60, seq(5))
	if got := s.Len(); got != 5 {
		t.Fatalf("Len() = %d, want 5", got)
	}
	if got := s.TimeAt(3); got != 1180 {
		t.Fatalf("TimeAt(3) = %d, want 1180", got)
	}
	p := s.At(2)
	if p.T != 1120 || p.V != 2 {
		t.Fatalf("At(2) = %+v", p)
	}
}

func TestSeriesClone(t *testing.T) {
	s := New("x", 0, 1, seq(4))
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] == 99 {
		t.Fatal("Clone shares storage with original")
	}
	if !s.Equal(New("x", 0, 1, seq(4))) {
		t.Fatal("original mutated")
	}
}

func TestSegment(t *testing.T) {
	s := New("x", 100, 10, seq(10))
	g, err := s.Segment(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Start != 120 || g.Len() != 4 || g.Values[0] != 2 {
		t.Fatalf("Segment = start %d len %d first %v", g.Start, g.Len(), g.Values[0])
	}
	if _, err := s.Segment(-1, 3); err == nil {
		t.Error("Segment(-1,3) should fail")
	}
	if _, err := s.Segment(5, 3); err == nil {
		t.Error("Segment(5,3) should fail")
	}
	if _, err := s.Segment(0, 11); err == nil {
		t.Error("Segment(0,11) should fail")
	}
}

func TestEqualNaN(t *testing.T) {
	a := New("x", 0, 1, []float64{1, math.NaN()})
	b := New("x", 0, 1, []float64{1, math.NaN()})
	if !a.Equal(b) {
		t.Error("NaN should compare equal to NaN in Equal")
	}
	c := New("x", 0, 1, []float64{1, 2})
	if a.Equal(c) {
		t.Error("NaN should not equal 2")
	}
}

func TestMaxAbsError(t *testing.T) {
	a := New("x", 0, 1, []float64{1, 2, 3})
	b := New("x", 0, 1, []float64{1.5, 2, 2})
	got, err := a.MaxAbsError(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("MaxAbsError = %v, want 1", got)
	}
	if _, err := a.MaxAbsError(New("x", 0, 1, seq(2))); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestMaxRelError(t *testing.T) {
	a := New("x", 0, 1, []float64{10, 0, -4})
	b := New("x", 0, 1, []float64{11, 0.5, -4.2})
	got, err := a.MaxRelError(b)
	if err != nil {
		t.Fatal(err)
	}
	// relative errors: 0.1, 0.5 (absolute at zero), 0.05
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MaxRelError = %v, want 0.5", got)
	}
}

// TestMaxRelErrorNonFinite: a non-finite mismatch is an error of +Inf, not
// a NaN that every comparison against a bound lets through, and an exact
// match passes, NaN-ness included.
func TestMaxRelErrorNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name       string
		raw, recon []float64
		want       float64
	}{
		{"finite", []float64{10, 0, -4}, []float64{11, 0.5, -4.2}, 0.5},
		{"NaN reconstruction", []float64{10, 2, 3}, []float64{10, nan, 3}, inf},
		{"NaN reconstruction of zero", []float64{0}, []float64{nan}, inf},
		{"+Inf reconstruction", []float64{10, 2}, []float64{inf, 2}, inf},
		{"-Inf reconstruction", []float64{10, 2}, []float64{10, -inf}, inf},
		{"finite reconstruction of NaN", []float64{nan, 1}, []float64{0, 1}, inf},
		{"finite reconstruction of +Inf", []float64{inf}, []float64{1e308}, inf},
		{"-Inf reconstruction of +Inf", []float64{inf}, []float64{-inf}, inf},
		{"NaN reconstruction of -Inf", []float64{-inf}, []float64{nan}, inf},
		{"exact NaN", []float64{nan, 4}, []float64{nan, 5}, 0.25},
		{"exact infinities", []float64{inf, -inf, 8}, []float64{inf, -inf, 8}, 0},
		{"overflowing difference", []float64{1e308}, []float64{-1e308}, inf},
		{"mismatch after NaN", []float64{1, 2, 3}, []float64{nan, 2, 4}, inf},
	} {
		a := New("x", 0, 1, tc.raw)
		got, err := a.MaxRelError(New("x", 0, 1, tc.recon))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !(got == tc.want || math.Abs(got-tc.want) <= 1e-12) {
			t.Errorf("%s: MaxRelError = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSplit(t *testing.T) {
	s := New("x", 0, 60, seq(100))
	train, val, test, err := s.Split(0.7, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 70 || val.Len() != 10 || test.Len() != 20 {
		t.Fatalf("split lengths = %d/%d/%d", train.Len(), val.Len(), test.Len())
	}
	if val.Start != s.TimeAt(70) || test.Start != s.TimeAt(80) {
		t.Fatal("split starts misaligned")
	}
	// Partitions must tile the original values in order.
	if train.Values[69] != 69 || val.Values[0] != 70 || test.Values[19] != 99 {
		t.Fatal("split values misaligned")
	}
}

func TestSplitErrors(t *testing.T) {
	s := New("x", 0, 1, seq(100))
	if _, _, _, err := s.Split(0, 0.5, 0.5); err == nil {
		t.Error("zero fraction should fail")
	}
	if _, _, _, err := s.Split(0.8, 0.2, 0.2); err == nil {
		t.Error("fractions > 1 should fail")
	}
	short := New("x", 0, 1, seq(2))
	if _, _, _, err := short.Split(0.7, 0.1, 0.2); err == nil {
		t.Error("too-short series should fail")
	}
}

func TestSplitPropertyPartition(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 20 {
			return true
		}
		s := New("x", 0, 1, raw)
		train, val, test, err := s.Split(0.7, 0.1, 0.2)
		if err != nil {
			return false
		}
		total := train.Len() + val.Len() + test.Len()
		return total <= len(raw) && total >= len(raw)-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalerRoundTrip(t *testing.T) {
	var sc StandardScaler
	vals := []float64{3, 7, 11, 2, 8, 40, -5}
	if err := sc.Fit(vals); err != nil {
		t.Fatal(err)
	}
	if !sc.Fitted() {
		t.Fatal("scaler should report fitted")
	}
	tr := sc.Transform(vals)
	var mean float64
	for _, v := range tr {
		mean += v
	}
	mean /= float64(len(tr))
	if math.Abs(mean) > 1e-12 {
		t.Fatalf("transformed mean = %v, want 0", mean)
	}
	back := sc.Inverse(tr)
	for i := range vals {
		if math.Abs(back[i]-vals[i]) > 1e-9 {
			t.Fatalf("round trip[%d] = %v, want %v", i, back[i], vals[i])
		}
	}
}

func TestScalerDegenerate(t *testing.T) {
	var sc StandardScaler
	if err := sc.Fit(nil); err == nil {
		t.Error("empty fit should fail")
	}
	if err := sc.Fit([]float64{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if sc.Std != 1 {
		t.Fatalf("constant input should fall back to Std=1, got %v", sc.Std)
	}
	got := sc.Transform([]float64{5})
	if got[0] != 0 {
		t.Fatalf("Transform(5) = %v, want 0", got[0])
	}
}

func TestScalerPropertyInverse(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		var sc StandardScaler
		if err := sc.Fit(vals); err != nil {
			return false
		}
		back := sc.Inverse(sc.Transform(vals))
		for i := range vals {
			tol := 1e-9 * (1 + math.Abs(vals[i]))
			if math.Abs(back[i]-vals[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeWindows(t *testing.T) {
	ws, err := MakeWindows(seq(10), 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 6 {
		t.Fatalf("window count = %d, want 6", ws.Len())
	}
	w := ws.Windows[0]
	if w.Input[0] != 0 || w.Input[2] != 2 || w.Target[0] != 3 || w.Target[1] != 4 {
		t.Fatalf("first window = %+v", w)
	}
	last := ws.Windows[5]
	if last.Target[1] != 9 {
		t.Fatalf("last window target = %v", last.Target)
	}
}

func TestMakeWindowsStride(t *testing.T) {
	ws, err := MakeWindows(seq(20), 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 3 {
		t.Fatalf("window count = %d, want 3", ws.Len())
	}
	if ws.Windows[1].Input[0] != 5 {
		t.Fatalf("stride misapplied: %v", ws.Windows[1].Input[0])
	}
}

func TestMakeWindowsErrors(t *testing.T) {
	if _, err := MakeWindows(seq(10), 0, 2, 1); err == nil {
		t.Error("zero input length should fail")
	}
	if _, err := MakeWindows(seq(4), 3, 2, 1); err == nil {
		t.Error("too-short values should fail")
	}
	if _, err := MakeWindows(seq(10), 3, 2, 0); err == nil {
		t.Error("zero stride should fail")
	}
}

func TestMakePairedWindows(t *testing.T) {
	inputs := seq(10)
	targets := make([]float64, 10)
	for i := range targets {
		targets[i] = float64(i) + 100
	}
	ws, err := MakePairedWindows(inputs, targets, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := ws.Windows[0]
	if w.Input[0] != 0 {
		t.Fatalf("paired input = %v", w.Input)
	}
	if w.Target[0] != 103 || w.Target[1] != 104 {
		t.Fatalf("paired target = %v, want raw values", w.Target)
	}
	if _, err := MakePairedWindows(seq(5), seq(6), 2, 1, 1); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestWindowSetAccessors(t *testing.T) {
	ws, _ := MakeWindows(seq(8), 2, 1, 2)
	in, tg := ws.Inputs(), ws.Targets()
	if len(in) != ws.Len() || len(tg) != ws.Len() {
		t.Fatal("accessor lengths differ from window count")
	}
	if in[1][0] != 2 || tg[1][0] != 4 {
		t.Fatalf("accessor contents wrong: %v %v", in[1], tg[1])
	}
}

func TestWindowSetScaled(t *testing.T) {
	var sc StandardScaler
	if err := sc.Fit([]float64{0, 2}); err != nil { // mean 1, std 1
		t.Fatal(err)
	}
	ws, _ := MakeWindows(seq(5), 2, 1, 1)
	sw := ws.Scaled(&sc)
	if sw.Windows[0].Input[0] != -1 {
		t.Fatalf("scaled input = %v, want -1", sw.Windows[0].Input[0])
	}
	// Scaling must not mutate the original windows.
	if ws.Windows[0].Input[0] != 0 {
		t.Fatal("Scaled mutated source windows")
	}
}

func TestFrame(t *testing.T) {
	a := New("a", 0, 0, seq(5))
	b := New("b", 0, 0, seq(5))
	f, err := NewFrame("f", 100, 60, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 5 {
		t.Fatalf("frame len = %d", f.Len())
	}
	if f.TargetSeries() != b {
		t.Fatal("target series wrong")
	}
	if f.Column("a") != a || f.Column("zzz") != nil {
		t.Fatal("column lookup wrong")
	}
	if a.Start != 100 || a.Interval != 60 {
		t.Fatal("frame should align column time axes")
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := NewFrame("f", 0, 1, 0); err == nil {
		t.Error("empty frame should fail")
	}
	a := New("a", 0, 1, seq(5))
	c := New("c", 0, 1, seq(4))
	if _, err := NewFrame("f", 0, 1, 0, a, c); err == nil {
		t.Error("ragged columns should fail")
	}
	if _, err := NewFrame("f", 0, 1, 2, a); err == nil {
		t.Error("target out of range should fail")
	}
}

func TestWindowAliasing(t *testing.T) {
	// Inputs alias the source array by contract; document the behaviour.
	vals := seq(10)
	ws, err := MakeWindows(vals, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals[0] = 99
	if ws.Windows[0].Input[0] != 99 {
		t.Fatal("windows should alias the source values")
	}
}

func TestSegmentSharesStorage(t *testing.T) {
	s := New("x", 0, 1, seq(10))
	g, err := s.Segment(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Values[0] = 42
	if s.Values[2] != 42 {
		t.Fatal("Segment should share the underlying array")
	}
}
