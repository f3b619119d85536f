package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.CI95 != 0 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// mean 4, sample sd 2.160247 over [2,4,6] -> CI = 4.303*sd/sqrt(3)
	s := Summarize([]float64{2, 4, 6})
	if s.Mean != 4 {
		t.Fatalf("mean = %f", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 1e-9 {
		t.Fatalf("sd = %f, want 2", s.StdDev)
	}
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(s.CI95-want) > 1e-6 {
		t.Fatalf("ci = %f, want %f", s.CI95, want)
	}
}

func TestTCritBounds(t *testing.T) {
	if tCrit(0) != 0 {
		t.Fatal("df=0 must yield 0")
	}
	if tCrit(1) != 12.706 {
		t.Fatal("df=1 wrong")
	}
	if got := tCrit(100000); math.Abs(got-1.960) > 1e-3 {
		t.Fatalf("very large df: tCrit = %f, want -> 1.960", got)
	}
}

// TestTCritMonotoneTail: the critical value must decrease strictly with
// df through the table, across the table edge, and down the analytic
// tail — the pre-fix table ended at df=20 (2.086) and jumped straight to
// the normal 1.960 at df=21, silently shrinking reported confidence
// intervals by ~6% the moment a sweep crossed 21 seeds.
func TestTCritMonotoneTail(t *testing.T) {
	for df := 2; df <= 500; df++ {
		prev, cur := tCrit(df-1), tCrit(df)
		if cur >= prev {
			t.Fatalf("tCrit not strictly decreasing at df=%d: %f -> %f", df, prev, cur)
		}
		if cur < 1.960 {
			t.Fatalf("tCrit(%d) = %f fell below the normal limit 1.960", df, cur)
		}
	}
	// No jump at the table edge: the df=20 -> df=21 step must be of the
	// same order as its neighbours (the pre-fix code stepped 0.126 here,
	// ~18x the table's local slope).
	if step := tCrit(20) - tCrit(21); step > 0.01 {
		t.Fatalf("discontinuity at table edge: tCrit(20)-tCrit(21) = %f", step)
	}
	if step := tCrit(30) - tCrit(31); step > 0.01 {
		t.Fatalf("discontinuity at table-to-tail handoff: tCrit(30)-tCrit(31) = %f", step)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("ratio wrong")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("zero denominator must not panic")
	}
}

func TestString(t *testing.T) {
	if s := Summarize([]float64{1}).String(); s != "1" {
		t.Fatalf("single-sample string %q", s)
	}
	multi := Summarize([]float64{1, 2, 3}).String()
	if multi == "" || multi == "2" {
		t.Fatalf("multi-sample string %q should include CI", multi)
	}
}

// TestPropertyMeanWithinRange: the mean always lies within [min, max].
func TestPropertyMeanWithinRange(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter NaN/Inf inputs.
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		lo, hi := clean[0], clean[0]
		for _, x := range clean {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return s.Mean >= lo-1e-9 && s.Mean <= hi+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
