package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecorderBasicStats(t *testing.T) {
	r := NewRecorder(8)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		r.Record(v)
	}
	if r.Count() != 5 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Mean() != 3 {
		t.Fatalf("mean = %f", r.Mean())
	}
	if r.Min() != 1 || r.Max() != 5 {
		t.Fatalf("min/max = %f/%f", r.Min(), r.Max())
	}
	if got := r.Percentile(50); got != 3 {
		t.Fatalf("p50 = %f", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Fatalf("p0 = %f", got)
	}
	if got := r.Percentile(100); got != 5 {
		t.Fatalf("p100 = %f", got)
	}
}

// An empty recorder grows by doubling: 64Ki samples take about 14
// allocations, not the ~35 of append's 1.25x steps past 256 elements.
func TestRecorderGrowsByDoubling(t *testing.T) {
	const n = 1 << 16
	var r *Recorder
	allocs := testing.AllocsPerRun(1, func() {
		r = NewRecorder(0)
		for i := 0; i < n; i++ {
			r.Record(float64(i))
		}
	})
	if allocs > 16 {
		t.Fatalf("recording %d samples took %.0f allocations, want <= 16", n, allocs)
	}
	if r.Count() != n || r.Sum() != float64(n)*(n-1)/2 || r.Percentile(100) != n-1 {
		t.Fatalf("count %d sum %g max %g", r.Count(), r.Sum(), r.Percentile(100))
	}
}

func TestRecorderPercentileInterpolation(t *testing.T) {
	r := NewRecorder(2)
	r.Record(0)
	r.Record(10)
	if got := r.Percentile(50); got != 5 {
		t.Fatalf("interpolated p50 = %f, want 5", got)
	}
	if got := r.Percentile(25); got != 2.5 {
		t.Fatalf("interpolated p25 = %f, want 2.5", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	var r Recorder
	if r.Mean() != 0 || r.Percentile(50) != 0 || r.Min() != 0 || r.Max() != 0 || r.Stddev() != 0 {
		t.Fatal("empty recorder should return zeros")
	}
	if r.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestRecorderSingleSample(t *testing.T) {
	var r Recorder
	r.Record(42)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := r.Percentile(p); got != 42 {
			t.Fatalf("p%g = %f", p, got)
		}
	}
}

func TestRecorderOutOfRangePercentileClamped(t *testing.T) {
	var r Recorder
	r.Record(1)
	r.Record(2)
	if got := r.Percentile(-5); got != 1 {
		t.Fatalf("p(-5) = %f", got)
	}
	if got := r.Percentile(150); got != 2 {
		t.Fatalf("p(150) = %f", got)
	}
}

func TestRecorderReset(t *testing.T) {
	var r Recorder
	r.Record(5)
	r.Reset()
	if r.Count() != 0 || r.Sum() != 0 {
		t.Fatal("reset did not clear recorder")
	}
	r.Record(7)
	if r.Mean() != 7 {
		t.Fatal("recorder unusable after reset")
	}
}

func TestRecorderRecordAfterPercentile(t *testing.T) {
	var r Recorder
	r.Record(3)
	r.Record(1)
	_ = r.Percentile(50) // forces sort
	r.Record(2)
	if got := r.Percentile(50); got != 2 {
		t.Fatalf("p50 after re-record = %f, want 2", got)
	}
}

func TestPercentilesMonotone(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		var r Recorder
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			r.Record(v)
		}
		if r.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := r.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestStddev(t *testing.T) {
	var r Recorder
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Record(v)
	}
	if got := r.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev = %f, want 2", got)
	}
}

func TestCDFProperties(t *testing.T) {
	var r Recorder
	for i := 100; i >= 1; i-- {
		r.Record(float64(i))
	}
	cdf := r.CDF(20)
	if len(cdf) != 20 {
		t.Fatalf("cdf len = %d", len(cdf))
	}
	if cdf[0].Value != 1 {
		t.Fatalf("first cdf value = %f", cdf[0].Value)
	}
	if cdf[len(cdf)-1].Value != 100 || cdf[len(cdf)-1].F != 1 {
		t.Fatalf("last cdf point = %+v", cdf[len(cdf)-1])
	}
	if !sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].F < cdf[j].F }) {
		t.Fatal("cdf F not monotone")
	}
	if !sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].Value <= cdf[j].Value }) {
		t.Fatal("cdf values not monotone")
	}
}

func TestCDFFewerSamplesThanPoints(t *testing.T) {
	var r Recorder
	r.Record(1)
	r.Record(2)
	r.Record(3)
	cdf := r.CDF(100)
	if len(cdf) != 3 {
		t.Fatalf("cdf len = %d, want 3", len(cdf))
	}
}

func TestSummary(t *testing.T) {
	var r Recorder
	for i := 1; i <= 100; i++ {
		r.Record(float64(i))
	}
	s := r.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 < 50 || s.P50 > 51 {
		t.Fatalf("p50 = %f", s.P50)
	}
	if s.P99 < 99 || s.P99 > 100 {
		t.Fatalf("p99 = %f", s.P99)
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Fatalf("summary string: %s", s.String())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 100 {
		t.Fatalf("mean = %f", h.Mean())
	}
	q := h.Quantile(0.5)
	// 100 falls in bucket [64,128): upper bound 128.
	if q != 128 {
		t.Fatalf("q50 = %f, want 128", q)
	}
}

func TestHistogramEmptyAndSmall(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	h.Observe(0.5)
	if h.Quantile(0.5) != 1 {
		t.Fatalf("sub-1 values should land in bucket 0: %f", h.Quantile(0.5))
	}
	h.Observe(-3)
	if h.Count() != 2 {
		t.Fatal("negative observation not counted")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	vals := []float64{1, 2, 4, 8, 16, 32, 64, 128, 1024, 65536}
	for _, v := range vals {
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
	}
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at %f: %f < %f", q, v, prev)
		}
		prev = v
	}
}

func TestCounterRate(t *testing.T) {
	var c Counter
	c.Add(1000)
	if c.Value() != 1000 {
		t.Fatalf("value = %d", c.Value())
	}
	// 1000 ops over 1 ms = 1e6 ops/s.
	if got := c.RatePerSec(1_000_000); got != 1e6 {
		t.Fatalf("rate = %f", got)
	}
	if got := c.RatePerSec(0); got != 0 {
		t.Fatalf("rate with zero elapsed = %f", got)
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header: %q", lines[0])
	}
	// All rows aligned to same width.
	if len(lines[2]) > len(lines[0])+10 {
		t.Fatalf("row widths inconsistent:\n%s", out)
	}
	// Short row padding must not panic.
	tb.AddRow("only-one-cell")
	_ = tb.String()
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(b.N)
	for i := 0; i < b.N; i++ {
		r.Record(float64(i % 1000))
	}
}

func BenchmarkRecorderPercentile(b *testing.B) {
	r := NewRecorder(100000)
	for i := 0; i < 100000; i++ {
		r.Record(float64(i * 7 % 100000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sorted = false
		_ = r.Percentile(99)
	}
}
