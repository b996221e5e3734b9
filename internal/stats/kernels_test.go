package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// naiveRollingMedian is the definition — Median of a fresh copy of every
// window — kept as the test oracle: RollingMedian's reused scratch slice
// must reproduce it exactly, bit for bit.
func naiveRollingMedian(s Series, window time.Duration) Series {
	out := Series{Times: make([]time.Duration, 0, s.Len()), Values: make([]float64, 0, s.Len())}
	start := 0
	for i := range s.Times {
		for s.Times[start] < s.Times[i]-window {
			start++
		}
		out.Add(s.Times[i], Median(s.Values[start:i+1]))
	}
	return out
}

func seriesEqual(t *testing.T, label string, got, want Series) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Values {
		if got.Times[i] != want.Times[i] || got.Values[i] != want.Values[i] {
			t.Fatalf("%s: point %d = (%v, %v), want (%v, %v)",
				label, i, got.Times[i], got.Values[i], want.Times[i], want.Values[i])
		}
	}
}

func TestRollingMedianMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(n int, gen func(i int) float64) Series {
		var s Series
		tm := time.Duration(0)
		for i := 0; i < n; i++ {
			// Irregular sample spacing, as real bitrate series have.
			tm += time.Duration(1+rng.Intn(900)) * time.Millisecond
			s.Add(tm, gen(i))
		}
		return s
	}
	cases := map[string]Series{
		"random":         mk(500, func(int) float64 { return rng.NormFloat64() * 1e6 }),
		"monotone-up":    mk(500, func(i int) float64 { return float64(i) }),
		"monotone-down":  mk(500, func(i int) float64 { return float64(-i) }),
		"constant":       mk(300, func(int) float64 { return 3.25 }),
		"heavy-dups":     mk(500, func(int) float64 { return float64(rng.Intn(4)) }),
		"sawtooth":       mk(500, func(i int) float64 { return float64(i % 17) }),
		"negative-cross": mk(400, func(i int) float64 { return float64(i%31) - 15 }),
	}
	for label, s := range cases {
		for _, w := range []time.Duration{time.Second, 5 * time.Second, time.Minute} {
			seriesEqual(t, label, s.RollingMedian(w), naiveRollingMedian(s, w))
		}
	}
}

// Property: for arbitrary integer-valued series RollingMedian and the
// copy-per-point oracle agree exactly.
func TestQuickRollingMedianMatchesNaive(t *testing.T) {
	f := func(raw []int16, gaps []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Series
		tm := time.Duration(0)
		for i, r := range raw {
			gap := time.Duration(500) * time.Millisecond
			if len(gaps) > 0 {
				gap = time.Duration(1+int(gaps[i%len(gaps)])) * 100 * time.Millisecond
			}
			tm += gap
			s.Add(tm, float64(r))
		}
		got := s.RollingMedian(5 * time.Second)
		want := naiveRollingMedian(s, 5*time.Second)
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				return false
			}
		}
		return got.Len() == want.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileSortedFastPath(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	unsorted := []float64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5}
	for _, p := range []float64{0, 25, 50, 90, 95, 99, 100} {
		if a, b := Percentile(sorted, p), Percentile(unsorted, p); a != b {
			t.Errorf("p%v: sorted path %v != unsorted path %v", p, a, b)
		}
	}
	// The fast path must not mutate (nothing to mutate) and the slow path
	// must still copy.
	Percentile(unsorted, 50)
	if unsorted[0] != 10 {
		t.Errorf("unsorted input mutated: %v", unsorted)
	}
}

func TestSortedPercentiles(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6}
	ref := append([]float64(nil), vs...)
	want := []float64{Percentile(ref, 50), Percentile(ref, 95), Percentile(ref, 99)}
	got := SortedPercentiles(vs, 50, 95, 99)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SortedPercentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if !sortedAsc(vs) {
		t.Errorf("input not sorted in place: %v", vs)
	}
	if SortedPercentiles(nil, 50) != nil {
		t.Error("empty input should return nil")
	}
}

// DurationPercentilesMs must equal, bit for bit, converting every sample to
// milliseconds and taking SortedPercentiles of the copy — the formulation
// the scale and dynamic latency columns were produced with.
func TestDurationPercentilesMsMatchesConvertedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 1000, 4097} {
		ds := make([]time.Duration, n)
		ms := make([]float64, n)
		for i := range ds {
			// Sub-microsecond to multi-second, with duplicates.
			ds[i] = time.Duration(rng.Int63n(3e9)) / time.Duration(1+rng.Intn(1000)) * time.Duration(1+rng.Intn(1000))
			ms[i] = ds[i].Seconds() * 1000
		}
		ps := []float64{0, 50, 95, 99, 99.9, 100}
		want := SortedPercentiles(ms, ps...)
		got := DurationPercentilesMs(ds, ps...)
		for i := range ps {
			if got[i] != want[i] {
				t.Errorf("n=%d p%v = %v, want %v", n, ps[i], got[i], want[i])
			}
		}
		for i := 1; i < n; i++ {
			if ds[i-1] > ds[i] {
				t.Fatalf("n=%d: durations not sorted in place", n)
			}
		}
	}
	if DurationPercentilesMs(nil, 50) != nil {
		t.Error("empty input should return nil")
	}
}

func sortedAsc(vs []float64) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i-1] > vs[i] {
			return false
		}
	}
	return true
}

// BenchmarkRollingMedian prices RollingMedian against the copy-per-point
// oracle, first at the shape production runs — 6 samples a window over 210
// points, where the reused scratch slice is the whole difference — then at
// windows far wider than anything in the tree, where an incremental
// structure would start to pay (run with -bench RollingMedian -benchmem).
func BenchmarkRollingMedian(b *testing.B) {
	for _, tc := range []struct{ n, w int }{{210, 6}, {8192, 64}, {8192, 1024}} {
		s, w := benchSeries(tc.n), tc.w
		window := time.Duration(w-1) * 100 * time.Millisecond // w samples per window
		b.Run(benchName("scratch", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.RollingMedian(window)
			}
		})
		b.Run(benchName("naive", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveRollingMedian(s, window)
			}
		})
	}
}

func benchSeries(n int) Series {
	rng := rand.New(rand.NewSource(42))
	var s Series
	for i := 0; i < n; i++ {
		s.Add(time.Duration(i)*100*time.Millisecond, rng.Float64()*1e7)
	}
	return s
}

func benchName(kind string, w int) string {
	return kind + "/w=" + itoa(w)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
