package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		vs   []float64
		p    float64
		want float64
	}{
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{5}, 50, 5},
		{nil, 50, 0},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{3, 1, 2}, 50, 2}, // must not require sorted input
	}
	for _, c := range cases {
		if got := Percentile(c.vs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v, %v) = %v, want %v", c.vs, c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vs := []float64{3, 1, 2}
	Percentile(vs, 50)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Errorf("input mutated: %v", vs)
	}
}

func TestMeanStdDev(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(vs); math.Abs(got-2.138) > 0.001 {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of single value should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.CI90 <= 0 {
		t.Errorf("CI90 = %v, want > 0", s.CI90)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty Summarize = %+v", z)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(time.Second)
	// 125000 bytes in second 0 => 1 Mbps.
	m.AddBytes(200*time.Millisecond, 100000)
	m.AddBytes(900*time.Millisecond, 25000)
	m.AddBytes(1500*time.Millisecond, 250000) // 2 Mbps in second 1
	s := m.RateMbps()
	if s.Len() != 2 {
		t.Fatalf("series length %d, want 2", s.Len())
	}
	if math.Abs(s.Values[0]-1.0) > 1e-9 || math.Abs(s.Values[1]-2.0) > 1e-9 {
		t.Errorf("rates = %v, want [1 2]", s.Values)
	}
	if got := m.MeanRateMbps(0, 2*time.Second); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("MeanRateMbps = %v, want 1.5", got)
	}
	if m.TotalBytes() != 375000 {
		t.Errorf("TotalBytes = %v", m.TotalBytes())
	}
}

// TestMeterMeanRateWindows: the mean covers whole bins, and a window that
// spans no bin boundary is rounded out to the bin holding from instead of
// dividing zero bytes by zero seconds. Bins before 0 and past the last
// hold no bytes but count toward the window, and no window panics.
func TestMeterMeanRateWindows(t *testing.T) {
	m, empty := NewMeter(time.Second), NewMeter(time.Second)
	for i := range 12 {
		m.AddBytes(time.Duration(i)*time.Second+time.Millisecond, 125000*(i+1)) // (i+1) Mbps in bin i
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name     string
		m        *Meter
		from, to time.Duration
		want     float64
	}{
		{"aligned one bin", m, ms(10000), ms(11000), 11},
		{"aligned two bins", m, ms(9000), ms(11000), 10.5},
		{"inside one bin", m, ms(10200), ms(10800), 11},
		{"inside the first bin", m, ms(100), ms(900), 1},
		{"unaligned across a boundary", m, ms(9500), ms(10500), 10},
		{"inside a bin past the data", m, ms(20200), ms(20800), 0},
		{"across the last bin", m, ms(11000), ms(14000), 4},
		{"empty window", m, ms(10500), ms(10500), 0},
		{"reversed window", m, ms(11000), ms(10000), 0},
		{"negative from", m, ms(-3000), ms(2000), 0.6},
		{"negative from, unaligned", m, ms(-1500), ms(1500), 1.0 / 3},
		{"inside a bin before 0", m, ms(-2500), ms(-2200), 0},
		{"empty meter", empty, ms(0), ms(5000), 0},
		{"empty meter, negative from", empty, ms(-3000), ms(2000), 0},
	}
	for _, c := range cases {
		got := c.m.MeanRateMbps(c.from, c.to)
		if math.IsNaN(got) || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: MeanRateMbps(%v, %v) = %v, want %v", c.name, c.from, c.to, got, c.want)
		}
	}
}

func TestSeriesSlice(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	sub := s.Slice(3*time.Second, 6*time.Second)
	if sub.Len() != 3 || sub.Values[0] != 3 || sub.Values[2] != 5 {
		t.Errorf("Slice = %+v", sub)
	}
}

func TestRollingMedian(t *testing.T) {
	var s Series
	vals := []float64{1, 1, 1, 10, 10, 10}
	for i, v := range vals {
		s.Add(time.Duration(i)*time.Second, v)
	}
	r := s.RollingMedian(2 * time.Second) // window covers 3 samples
	// At t=3 the window holds {1,1,10} -> median 1; at t=4 {1,10,10} -> 10.
	if r.Values[3] != 1 {
		t.Errorf("rolled[3] = %v, want 1", r.Values[3])
	}
	if r.Values[4] != 10 {
		t.Errorf("rolled[4] = %v, want 10", r.Values[4])
	}
}

func TestTTR(t *testing.T) {
	// Bitrate 1.0 for 60s, 0.2 during 60–90s disruption, staircase back.
	var s Series
	for i := 0; i <= 200; i++ {
		tm := time.Duration(i) * time.Second
		var v float64
		switch {
		case i < 60:
			v = 1.0
		case i < 90:
			v = 0.2
		case i < 110: // 20s of slow ramp
			v = 0.2 + float64(i-90)*0.04
		default:
			v = 1.0
		}
		s.Add(tm, v)
	}
	ttr, ok := TTR(s, 60*time.Second, 90*time.Second, 5*time.Second, 0.95)
	if !ok {
		t.Fatal("TTR did not find recovery")
	}
	// Instantaneous rate crosses 0.95 at ~109s; the 5s rolling median
	// crosses a little later. Accept 18–30 s.
	if ttr < 18*time.Second || ttr > 30*time.Second {
		t.Errorf("TTR = %v, want ~19-30s", ttr)
	}
}

func TestTTRNeverRecovers(t *testing.T) {
	var s Series
	for i := 0; i <= 100; i++ {
		v := 1.0
		if i >= 50 {
			v = 0.1
		}
		s.Add(time.Duration(i)*time.Second, v)
	}
	if _, ok := TTR(s, 50*time.Second, 60*time.Second, 5*time.Second, 0.95); ok {
		t.Error("TTR reported recovery for a series that never recovers")
	}
}

// TestRecoveryAfterEdges covers what TTR's happy paths never reach: a
// zero nominal leaves nothing to recover to, and a series that ends before
// one window has passed is judged on the partial window it has — still
// depressed means not recovered, and no samples at all means the same.
func TestRecoveryAfterEdges(t *testing.T) {
	var flat Series
	for i := 0; i <= 100; i++ {
		flat.Add(time.Duration(i)*time.Second, 0)
	}
	if _, ok := TTR(flat, 50*time.Second, 60*time.Second, 5*time.Second, 0.95); ok {
		t.Error("TTR reported recovery to a zero nominal")
	}
	if _, ok := RecoveryAfter(flat, 60*time.Second, 5*time.Second, 0); ok {
		t.Error("RecoveryAfter reported recovery to a zero level")
	}

	// 1.0 until the event at 60 s, then 0.2; the data stops at 62 s.
	var short Series
	for i := 0; i <= 62; i++ {
		v := 1.0
		if i >= 60 {
			v = 0.2
		}
		short.Add(time.Duration(i)*time.Second, v)
	}
	if _, ok := RecoveryAfter(short, 60*time.Second, 5*time.Second, 0.8); ok {
		t.Error("recovered on a 2 s tail that never left 0.2")
	}
	if _, ok := RecoveryAfter(short, 70*time.Second, 5*time.Second, 0.8); ok {
		t.Error("recovered with no samples after the event")
	}
	// The same short tail already back at nominal counts from its first
	// sample: a partial window is a window.
	if ttr, ok := RecoveryAfter(short, 30*time.Second, 5*time.Second, 0.8); !ok || ttr != 0 {
		t.Errorf("RecoveryAfter on a healthy series = %v, %v; want 0s, true", ttr, ok)
	}
}

func TestShare(t *testing.T) {
	if got := Share(3, 1); got != 0.75 {
		t.Errorf("Share(3,1) = %v, want 0.75", got)
	}
	if got := Share(0, 0); got != 0 {
		t.Errorf("Share(0,0) = %v, want 0", got)
	}
}

// Property: Percentile(vs, 50) equals the textbook median.
func TestQuickMedian(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		for i, r := range raw {
			vs[i] = float64(r)
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		var want float64
		n := len(sorted)
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		return math.Abs(Median(vs)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []int16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		for i, r := range raw {
			vs[i] = float64(r)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(vs, a), Percentile(vs, b)
		return pa <= pb && pa >= Percentile(vs, 0) && pb <= Percentile(vs, 100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the meter conserves bytes and its mean rate matches total bytes.
func TestQuickMeterConservation(t *testing.T) {
	f := func(events []uint16) bool {
		m := NewMeter(time.Second)
		var total float64
		maxT := time.Duration(0)
		for _, e := range events {
			at := time.Duration(e%60) * 100 * time.Millisecond
			if at > maxT {
				maxT = at
			}
			m.AddBytes(at, int(e))
			total += float64(e)
		}
		return math.Abs(m.TotalBytes()-total) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentileEdgeCases pins the boundary behaviour of Percentile and
// SortedPercentiles: empty input, a single sample, the q=0/q=100 extremes,
// out-of-range and NaN quantiles must all return a defined value — never
// panic or index out of range. The NaN row is the regression case: the
// rank-to-index conversion used to turn NaN into a huge negative index.
func TestPercentileEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		vs   []float64
		q    float64
		want float64
	}{
		{"empty q=50", nil, 50, 0},
		{"empty q=0", []float64{}, 0, 0},
		{"empty q=100", []float64{}, 100, 0},
		{"single q=0", []float64{5}, 0, 5},
		{"single q=50", []float64{5}, 50, 5},
		{"single q=100", []float64{5}, 100, 5},
		{"single q=NaN", []float64{5}, nan, nan},
		{"q below range clamps to min", []float64{3, 1, 2}, -5, 1},
		{"q above range clamps to max", []float64{3, 1, 2}, 200, 3},
		{"q=0 is min", []float64{4, 2, 8}, 0, 2},
		{"q=100 is max", []float64{4, 2, 8}, 100, 8},
		{"q=NaN propagates", []float64{1, 2}, nan, nan},
	}
	for _, c := range cases {
		got := Percentile(append([]float64(nil), c.vs...), c.q)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("Percentile %s = %v, want NaN", c.name, got)
			}
		} else if got != c.want {
			t.Errorf("Percentile %s = %v, want %v", c.name, got, c.want)
		}
		sp := SortedPercentiles(append([]float64(nil), c.vs...), c.q)
		if len(c.vs) == 0 {
			if sp != nil {
				t.Errorf("SortedPercentiles %s = %v, want nil", c.name, sp)
			}
			continue
		}
		if math.IsNaN(c.want) {
			if !math.IsNaN(sp[0]) {
				t.Errorf("SortedPercentiles %s = %v, want NaN", c.name, sp[0])
			}
		} else if sp[0] != c.want {
			t.Errorf("SortedPercentiles %s = %v, want %v", c.name, sp[0], c.want)
		}
	}
	// The internal kernel itself must tolerate an empty slice at every
	// quantile (future callers may skip the public length guards).
	for _, q := range []float64{-1, 0, 50, 100, 101, nan} {
		if got := percentileSorted(nil, q); got != 0 {
			t.Errorf("percentileSorted(nil, %v) = %v, want 0", q, got)
		}
	}
}
