package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); math.Abs(got-2.8) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Max(xs); got != 5 {
		t.Fatalf("Max = %v", got)
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-slice summaries not zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q.25 = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.75); math.Abs(got-7.5) > 1e-12 {
		t.Fatalf("interpolated quantile = %v", got)
	}
}

func TestSortedDescending(t *testing.T) {
	xs := []float64{2, 9, 4}
	out := SortedDescending(xs)
	if out[0] != 9 || out[1] != 4 || out[2] != 2 {
		t.Fatalf("sorted = %v", out)
	}
	if xs[0] != 2 {
		t.Fatal("input mutated")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{0.05, 0.15, 0.15, 0.95}, 0, 1, 10)
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	if got := h.BucketCenter(0); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("center(0) = %v", got)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram([]float64{-5, 0.5, 99}, 0, 1, 4)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("outliers not clamped: %v", h.Counts)
	}
	if h.Total() != 3 {
		t.Fatalf("sample dropped: %d", h.Total())
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero buckets": func() { NewHistogram(nil, 0, 1, 0) },
		"bad range":    func() { NewHistogram(nil, 1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestHistogramConservation: bucketing never loses or invents samples.
func TestHistogramConservation(t *testing.T) {
	f := func(xs []float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		h := NewHistogram(xs, 0, 1, 7)
		return h.Total() == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
