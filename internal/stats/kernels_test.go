package stats

import (
	"encoding/binary"
	"fmt"
	"math"
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

// record lays samples out the way vca's region logs hold them: each log in
// its own RunTable, stage samples staged between merges.
func record(stage int, logs ...[]time.Duration) []*RunTable {
	ts := make([]*RunTable, len(logs))
	for i, log := range logs {
		ts[i] = &RunTable{stage: make([]uint32, 0, stage)}
		for _, d := range log {
			ts[i].Add(d)
		}
	}
	return ts
}

// checkRunsExact holds RunPercentilesMs over the recorded logs to the
// formulation the latency columns were first produced with — convert every
// sample to ms, sort the copy, interpolate — bit for bit, and each table
// to its shape: values ascending and distinct, no empty run.
func checkRunsExact(t *testing.T, name string, stage int, ps []float64, logs ...[]time.Duration) {
	t.Helper()
	var ms []float64
	for _, log := range logs {
		for _, d := range log {
			ms = append(ms, d.Seconds()*1000)
		}
	}
	want := SortedPercentiles(ms, ps...)
	ts := record(stage, logs...)
	got := RunPercentilesMs(ts, ps...)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, want %v", name, got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: n=%d p%v = %v, want %v", name, len(ms), ps[i], got[i], want[i])
		}
	}
	for ti, tb := range ts {
		for i := range tb.runs.n {
			r, prev := tb.runs.at(i), tb.runs.at(max(i-1, 0))
			if r.count == 0 || i > 0 && prev.v >= r.v {
				t.Fatalf("%s: table %d entry %d = (%d ns × %d) after (%d ns)", name, ti, i, r.v, r.count, prev.v)
			}
		}
		if pages, need := len(tb.runs.pages), (tb.runs.n+pageLen-1)/pageLen; pages != need {
			t.Fatalf("%s: table %d holds %d runs in %d pages, want %d", name, ti, tb.runs.n, pages, need)
		}
	}
}

// everyRank is a quantile grid fine enough to land on, and between, every
// pair of adjacent ranks of a sample of up to 40, plus the edge quantiles.
func everyRank() []float64 {
	ps := []float64{math.NaN(), -5, 0, 50, 95, 99, 100, 105}
	for p := 0.0; p <= 100; p += 0.625 {
		ps = append(ps, p)
	}
	return ps
}

func TestRunPercentilesMsMatchesConvertedCopy(t *testing.T) {
	const over = time.Duration(1) << 32 // the first sample that does not fit
	ps := everyRank()
	checkRunsExact(t, "empty", 4, ps)
	checkRunsExact(t, "one sample", 4, ps, []time.Duration{17})
	checkRunsExact(t, "one wide sample", 4, ps, []time.Duration{-3})
	checkRunsExact(t, "all equal", 4, ps, []time.Duration{9, 9, 9, 9, 9, 9, 9, 9, 9})
	checkRunsExact(t, "partial staging buffer", 4, ps, []time.Duration{5, 1, 4, 2, 3, 0, math.MaxUint32})
	checkRunsExact(t, "several logs, partial buffers", 4, ps,
		[]time.Duration{50, 10, 40, 20, 30}, []time.Duration{25, 15}, nil, []time.Duration{60, 5, 35, 45, 55, 65, 1, 2, 3})
	// The same values recurring within and across logs, so runs with
	// counts above one meet in the read-time merge.
	checkRunsExact(t, "counts > 1 merging across regions", 3, ps,
		[]time.Duration{5, 5, 3, 5, 3, 9, 5}, []time.Duration{3, 9, 9, 5, 1, 3}, []time.Duration{9, 5, 5, 5, 1})
	// A merge after every sample, and after every pair.
	for _, stage := range []int{1, 2} {
		checkRunsExact(t, fmt.Sprintf("stage %d", stage), stage, ps,
			[]time.Duration{7, 1, 7, 3, 7, 2, 9, 1}, []time.Duration{4, 4, 8, 0, 7}, []time.Duration{-5, 6})
	}
	// Ranks lo and lo+1 both inside a run of duplicates, and on each edge
	// of it, with the run split across merges and logs.
	checkRunsExact(t, "duplicates straddling a rank", 3, ps,
		[]time.Duration{7, 1, 7, 7, 2}, []time.Duration{7, 9, 7, 8, 7})
	// Four negatives, eight that fit, four past 2³² ns: the grid puts a
	// rank inside each group and on both boundaries between them.
	checkRunsExact(t, "wide on both sides", 3, ps,
		[]time.Duration{-1, 300, over + 2, 100, -40, 500, over}, []time.Duration{200, 5 * time.Second, -2, 400, 0, math.MaxUint32, -1, 600, over + 2})
	checkRunsExact(t, "only wide", 3, ps, []time.Duration{over, -1, over + 7, -9})

	// One below, at and one above each of the first two page boundaries,
	// each value twice, in an order that lands new values in every page:
	// merges insert in front of entries already paged, moving them across
	// a boundary, and the last merge opens the page the count calls for.
	for _, distinct := range []int{pageLen - 1, pageLen, pageLen + 1, 2*pageLen - 1, 2 * pageLen, 2*pageLen + 1} {
		var log []time.Duration
		for _, i := range rand.New(rand.NewSource(int64(distinct))).Perm(2 * distinct) {
			log = append(log, time.Duration(i%distinct)*time.Microsecond)
		}
		for _, stage := range []int{7, runStage} {
			checkRunsExact(t, fmt.Sprintf("%d distinct, stage %d", distinct, stage), stage, ps, log, log[:distinct/2])
		}
	}

	// The sizes a 48-party trial has: several logs of many full staging
	// buffers and a partial one, sub-microsecond to multi-second values with
	// duplicates, a few samples on either side of the 32-bit range.
	rng := rand.New(rand.NewSource(7))
	logs := make([][]time.Duration, 3)
	for li, n := range []int{30*runStage + 5, 8 * runStage, 1000} {
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int63n(3e9)) / time.Duration(1+rng.Intn(1000)) * time.Duration(1+rng.Intn(1000))
			switch rng.Intn(5000) {
			case 0:
				d = -d
			case 1:
				d += over
			}
			logs[li] = append(logs[li], d)
		}
	}
	checkRunsExact(t, "trial-sized", runStage, []float64{0, 50, 95, 99, 99.9, 99.999, 100}, logs...)
}

// FuzzRunPercentilesMs decodes an arbitrary byte string into region
// logs — five bytes a sample: a tag picking negative / past-2³² / in-range
// and whether a new log starts, then the magnitude — and holds the kernel
// to the converted-copy reference at quantile p and the fixed three, with
// 1 + stage samples staged between merges. The seed corpus under
// testdata/fuzz runs as a plain test.
func FuzzRunPercentilesMs(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 7}, uint8(4), 50.0)
	// Two pages and more of distinct values: descending, so each merge
	// puts its values in front of every paged entry; then two logs whose
	// values interleave, the second ending in a wide sample on each side.
	var desc, interleaved []byte
	for i := 2*pageLen + 9; i > 0; i-- {
		desc = binary.BigEndian.AppendUint32(append(desc, 2), uint32(i)*1000)
	}
	for i := range 3 * pageLen {
		tag := byte(2)
		if i == pageLen {
			tag = 0x12 // a new log starts
		}
		interleaved = binary.BigEndian.AppendUint32(append(interleaved, tag), uint32(i%pageLen*2+i/pageLen))
	}
	interleaved = append(interleaved, 0, 0, 0, 0, 9, 1, 0, 0, 0, 9)
	f.Add(desc, uint8(10), 99.0)
	f.Add(interleaved, uint8(30), 37.5)
	f.Fuzz(func(t *testing.T, data []byte, stage uint8, p float64) {
		logs := [][]time.Duration{nil}
		for ; len(data) >= 5; data = data[5:] {
			d := time.Duration(binary.BigEndian.Uint32(data[1:5]))
			switch data[0] % 8 {
			case 0:
				d = -d - 1
			case 1:
				d += 1 << 32
			}
			if data[0]&0x10 != 0 {
				logs = append(logs, nil)
			}
			logs[len(logs)-1] = append(logs[len(logs)-1], d)
		}
		checkRunsExact(t, "fuzz", 1+int(stage), []float64{p, 50, 95, 99}, logs...)
	})
}

// flatMeter is the meter on one flat slice grown a bin at a time, the
// layout before pages, kept as FuzzMeter's reference.
type flatMeter struct {
	bin  time.Duration
	bins []float64
}

func (f *flatMeter) add(t time.Duration, n int) {
	for len(f.bins) <= int(t/f.bin) {
		f.bins = append(f.bins, 0)
	}
	f.bins[int(t/f.bin)] += float64(n)
}

func (f *flatMeter) meanRateMbps(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	floor := func(t time.Duration) int { return int((t - (f.bin+t%f.bin)%f.bin) / f.bin) }
	lo := floor(from)
	hi := max(floor(to), lo+1)
	var bytes float64
	for i := max(lo, 0); i < hi && i < len(f.bins); i++ {
		bytes += f.bins[i]
	}
	return bytes * 8 / (time.Duration(hi-lo) * f.bin).Seconds() / 1e6
}

// FuzzMeter decodes an arbitrary byte string into a program of AddBytes
// calls — three bytes each: a tag picking a step forward of up to 6.3 s,
// a jump of up to 630 s (pages ahead, leaving bins empty), or a return to
// time 0, then the byte count — and holds TotalBytes, RateMbps and
// MeanRateMbps over a window that may start before 0 to the flat
// reference, bit for bit.
func FuzzMeter(f *testing.F) {
	f.Add([]byte{0x45, 0x04, 0xb0, 0x01, 0x00, 0x10, 0x7f, 0x05, 0xdc, 0x80, 0x00, 0x01}, uint16(999), int32(-3000), int32(700000))
	f.Add([]byte{0x7f, 0x00, 0x01, 0x48, 0xff, 0xff, 0x0a, 0x12, 0x34, 0x41, 0x00, 0x00, 0x3f, 0x05, 0xdc}, uint16(249), int32(120000), int32(121000))
	var dense []byte // a second a step, each bin its own count, over two pages
	for i := range 2*pageLen + 3 {
		dense = append(dense, 0x0a, 0, byte(i))
	}
	f.Add(dense, uint16(999), int32(-1500), int32(100500))
	f.Fuzz(func(t *testing.T, prog []byte, binMs uint16, fromMs, toMs int32) {
		bin := time.Duration(1+int(binMs)) * time.Millisecond
		m, ref := NewMeter(bin), &flatMeter{bin: bin}
		at := time.Duration(0)
		for ; len(prog) >= 3; prog = prog[3:] {
			step := time.Duration(prog[0]&0x3f) * 100 * time.Millisecond
			switch prog[0] >> 6 {
			case 1:
				step *= 100
			case 2:
				at = 0
			}
			at += step
			n := int(binary.BigEndian.Uint16(prog[1:3]))
			m.AddBytes(at, n)
			ref.add(at, n)
		}
		same := func(what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
		var total float64
		for _, b := range ref.bins {
			total += b
		}
		same("TotalBytes", m.TotalBytes(), total)
		rate := m.RateMbps()
		if rate.Len() != len(ref.bins) {
			t.Fatalf("RateMbps has %d points, want %d", rate.Len(), len(ref.bins))
		}
		for i, b := range ref.bins {
			if rate.Times[i] != time.Duration(i+1)*bin {
				t.Fatalf("RateMbps point %d at %v, want %v", i, rate.Times[i], time.Duration(i+1)*bin)
			}
			same(fmt.Sprintf("RateMbps point %d", i), rate.Values[i], b*8/bin.Seconds()/1e6)
		}
		from, to := time.Duration(fromMs)*time.Millisecond, time.Duration(toMs)*time.Millisecond
		same(fmt.Sprintf("MeanRateMbps(%v, %v)", from, to), m.MeanRateMbps(from, to), ref.meanRateMbps(from, to))
	})
}

// BenchmarkMeterAddBytes prices the per-packet tap: a 300 s call of one
// 1200-byte packet a millisecond into 1 s bins, a fresh meter every 300 000
// packets so that growing the bins is in the price.
func BenchmarkMeterAddBytes(b *testing.B) {
	const packets = 300_000
	var m *Meter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%packets == 0 {
			m = NewMeter(time.Second)
		}
		m.AddBytes(time.Duration(i%packets)*time.Millisecond, 1200)
	}
	meterSink = m.TotalBytes()
}

var meterSink float64

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
