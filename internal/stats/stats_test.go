package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestDeviationFrom(t *testing.T) {
	got := DeviationFrom([]float64{49, 51}, 50)
	if !almostEqual(got, 1, 1e-12) {
		t.Fatalf("DeviationFrom = %v, want 1", got)
	}
	if DeviationFrom(nil, 50) != 0 {
		t.Fatal("empty slice should yield 0")
	}
	// NaN and Inf are skipped.
	got = DeviationFrom([]float64{50, math.NaN(), math.Inf(1)}, 50)
	if got != 0 {
		t.Fatalf("NaN/Inf not skipped: %v", got)
	}
}

func TestDeviationFromExact(t *testing.T) {
	f := func(truth float64, n uint8) bool {
		if math.IsNaN(truth) || math.IsInf(truth, 0) {
			return true
		}
		truth = math.Mod(truth, 1e6)
		xs := make([]float64, int(n%32)+1)
		for i := range xs {
			xs[i] = truth
		}
		return DeviationFrom(xs, truth) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if !almostEqual(Mean(xs), 2.5, 1e-12) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	want := math.Sqrt(1.25)
	if !almostEqual(StdDev(xs), want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", StdDev(xs), want)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty Mean/StdDev should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty Quantile should be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF()
	for _, v := range []int{1, 1, 2, 3, 3, 3} {
		c.Observe(v)
	}
	if c.Total() != 6 {
		t.Fatalf("Total = %d", c.Total())
	}
	if !almostEqual(c.At(0), 0, 1e-12) {
		t.Errorf("At(0) = %v", c.At(0))
	}
	if !almostEqual(c.At(1), 2.0/6, 1e-12) {
		t.Errorf("At(1) = %v", c.At(1))
	}
	if !almostEqual(c.At(2), 3.0/6, 1e-12) {
		t.Errorf("At(2) = %v", c.At(2))
	}
	if !almostEqual(c.At(3), 1, 1e-12) {
		t.Errorf("At(3) = %v", c.At(3))
	}
	if !almostEqual(c.At(100), 1, 1e-12) {
		t.Errorf("At(100) = %v", c.At(100))
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF()
	if c.At(5) != 0 || c.Total() != 0 || len(c.Points()) != 0 {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		c := NewCDF()
		for _, v := range raw {
			c.Observe(int(v))
		}
		pts := c.Points()
		prevV := math.MinInt32
		prevP := 0.0
		for _, p := range pts {
			if p.Value <= prevV || p.P < prevP {
				return false
			}
			prevV, prevP = p.Value, p.P
		}
		if len(pts) > 0 && !almostEqual(pts[len(pts)-1].P, 1, 1e-12) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFSupportSorted(t *testing.T) {
	c := NewCDF()
	for _, v := range []int{5, -1, 3, 5, 0} {
		c.Observe(v)
	}
	sup := c.Support()
	want := []int{-1, 0, 3, 5}
	if len(sup) != len(want) {
		t.Fatalf("Support = %v", sup)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("Support = %v, want %v", sup, want)
		}
	}
}

func TestCDFPointString(t *testing.T) {
	p := CDFPoint{Value: 3, P: 0.5}
	if p.String() != "3:0.500" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Label = "test"
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(10-i))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.TailMean(2); !almostEqual(got, 6.5, 1e-12) {
		t.Errorf("TailMean(2) = %v", got)
	}
	if got := s.TailMean(100); !almostEqual(got, 8, 1e-12) {
		t.Errorf("TailMean(100) = %v", got)
	}
	fx, found := s.FirstBelow(8)
	if !found || fx != 2 {
		t.Errorf("FirstBelow(8) = (%v, %v)", fx, found)
	}
	if _, found := s.FirstBelow(1); found {
		t.Error("FirstBelow(1) should not be found")
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.TailMean(3) != 0 {
		t.Error("empty TailMean should be 0")
	}
	if _, ok := s.FirstBelow(1); ok {
		t.Error("empty FirstBelow should be !ok")
	}
}
