// Package stats provides the measurement toolkit used throughout vcalab:
// rate meters that turn packet deliveries into bitrate time series, order
// statistics with 90% confidence intervals (the error bands on every figure
// in the paper), rolling medians, link-share computation, and the paper's
// time-to-recovery (TTR) metric from §4.
package stats

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Series is a time-indexed sequence of samples. Times must be appended in
// non-decreasing order.
type Series struct {
	Times  []time.Duration
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s Series) Len() int { return len(s.Values) }

// Slice returns the sub-series with from <= t < to.
func (s Series) Slice(from, to time.Duration) Series {
	lo := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] >= from })
	hi := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] >= to })
	return Series{Times: s.Times[lo:hi], Values: s.Values[lo:hi]}
}

// RollingMedian returns a new series where each point is the median of the
// samples within the trailing window ending at that point. This is the
// paper's "five-second rolling median bitrate".
//
// Each point is Median of its window, sorted in one scratch slice reused
// across points so that little but the output is allocated (DESIGN §8 has
// the measured reason this is not an incremental window).
func (s Series) RollingMedian(window time.Duration) Series {
	out := Series{Times: make([]time.Duration, 0, s.Len()), Values: make([]float64, 0, s.Len())}
	var scratch []float64
	start := 0
	for i := range s.Times {
		for s.Times[start] < s.Times[i]-window {
			start++
		}
		scratch = append(scratch[:0], s.Values[start:i+1]...)
		sort.Float64s(scratch)
		out.Add(s.Times[i], percentileSorted(scratch, 50))
	}
	return out
}

// Meter accumulates bytes into fixed-width time bins and reports a bitrate
// series. It is the pcap-style throughput instrument: tap packet deliveries
// into it and read Mbps out.
type Meter struct {
	Bin  time.Duration
	bins paged[float64] // bytes per bin
}

// NewMeter creates a meter with the given bin width (commonly 1s).
func NewMeter(bin time.Duration) *Meter {
	if bin <= 0 {
		panic("stats: non-positive meter bin")
	}
	return &Meter{Bin: bin}
}

// AddBytes credits n bytes at virtual time t.
func (m *Meter) AddBytes(t time.Duration, n int) {
	i := int(t / m.Bin)
	if i >= m.bins.n {
		m.bins.grow(i + 1)
	}
	*m.bins.at(i) += float64(n)
}

// TotalBytes returns the total accumulated bytes.
func (m *Meter) TotalBytes() float64 {
	var sum float64
	for i := range m.bins.n {
		sum += *m.bins.at(i)
	}
	return sum
}

// RateMbps returns a Series of megabits/second, one point per bin, stamped
// at the bin end.
func (m *Meter) RateMbps() Series {
	s := Series{Times: make([]time.Duration, 0, m.bins.n), Values: make([]float64, 0, m.bins.n)}
	for i := range m.bins.n {
		s.Add(time.Duration(i+1)*m.Bin, *m.bins.at(i)*8/m.Bin.Seconds()/1e6)
	}
	return s
}

// MeanRateMbps returns the average rate over [from, to) in whole bins; a
// window inside one bin is rounded out to the bin that holds from. Bins
// before 0 hold no bytes but count toward the window.
func (m *Meter) MeanRateMbps(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	lo := m.binOf(from)
	hi := max(m.binOf(to), lo+1)
	var bytes float64
	for i := max(lo, 0); i < min(hi, m.bins.n); i++ {
		bytes += *m.bins.at(i)
	}
	return bytes * 8 / (time.Duration(hi-lo) * m.Bin).Seconds() / 1e6
}

// binOf returns the index of the bin holding t, negative before 0.
func (m *Meter) binOf(t time.Duration) int {
	i := int(t / m.Bin)
	if t%m.Bin < 0 {
		i--
	}
	return i
}

// pageShift sizes the pages of a paged sequence: 64 entries, 512 B of a
// meter's bins or of a run table's runs.
const (
	pageShift = 6
	pageLen   = 1 << pageShift
)

// paged is a sequence of n entries kept in fixed pages, so growing it
// allocates a page at a time and never copies an entry: it holds under one
// page more than it uses, plus a pointer a page.
type paged[T any] struct {
	pages []*[pageLen]T
	n     int
}

// at returns entry i, which must be below n.
func (p *paged[T]) at(i int) *T { return &p.pages[i>>pageShift][i&(pageLen-1)] }

// grow extends the sequence to n entries; each entry it adds is zero.
func (p *paged[T]) grow(n int) {
	for len(p.pages)<<pageShift < n {
		p.pages = append(p.pages, new([pageLen]T))
	}
	p.n = n
}

// Median returns the median of vs (0 for empty input).
func Median(vs []float64) float64 { return Percentile(vs, 50) }

// Percentile returns the p-th percentile (0–100) using linear interpolation
// between closest ranks. Returns 0 for empty input. Already-sorted input
// is detected in O(n) and used directly — no copy, no re-sort; unsorted
// input is copied and never mutated.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := vs
	if !sort.Float64sAreSorted(vs) {
		sorted = append([]float64(nil), vs...)
		sort.Float64s(sorted)
	}
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile's kernel over pre-sorted data. It tolerates
// every input Percentile's length guard does not rule out: an empty slice
// yields 0 (the package-wide empty convention), a NaN quantile yields NaN
// (propagated, never an index), and out-of-range quantiles clamp to the
// extremes.
func percentileSorted(sorted []float64, p float64) float64 {
	return percentileAt(len(sorted), p, func(i int) float64 { return sorted[i] })
}

// percentileAt interpolates the p-th percentile of n ascending samples
// read through at, so a caller holding samples in another unit converts
// only the one or two it lands on.
func percentileAt(n int, p float64, at func(i int) float64) float64 {
	if n == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return at(0)
	}
	if p >= 100 {
		return at(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return at(lo)
	}
	return at(lo)*(1-frac) + at(lo+1)*frac
}

// SortedPercentiles sorts vs in place once and returns the requested
// percentiles, so callers needing several quantiles of one sample pay a
// single sort, not one copy-and-sort each. Returns nil for empty input.
func SortedPercentiles(vs []float64, ps ...float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	sort.Float64s(vs)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(vs, p)
	}
	return out
}

// RunTable is an exact multiset of nanosecond samples: the samples that fit
// 32 bits as a run-length table — distinct values ascending, each with its
// count, 8 B an entry however often the value recurs, in pages that never
// move — and the rest (negative, or ≥ 2³² ns ≈ 4.29 s) whole in wide, so
// nothing is clamped. New samples wait in a fixed staging buffer; a full
// buffer is sorted and merged into the table in place, so recording costs
// O(distinct values), not O(samples). The zero value is an empty table.
type RunTable struct {
	runs  paged[run] // ascending, distinct values
	stage []uint32   // unsorted, not yet in runs; capacity runStage once used
	wide  []time.Duration
}

// run is count samples of v ns.
type run struct{ v, count uint32 }

const runStage = 1024 // samples staged between merges (4 KB)

// Add records one sample.
func (t *RunTable) Add(d time.Duration) {
	if uint64(d) > math.MaxUint32 {
		t.wide = append(t.wide, d)
		return
	}
	if t.stage == nil {
		t.stage = make([]uint32, 0, runStage)
	}
	t.stage = append(t.stage, uint32(d))
	if len(t.stage) == cap(t.stage) {
		t.flush()
	}
}

// flush merges the staged samples into the table, back to front so that
// no entry moves twice, after adding the pages the new values need.
func (t *RunTable) flush() {
	if len(t.stage) == 0 {
		return
	}
	slices.Sort(t.stage)
	old := t.runs.n
	n := old
	for i, j := 0, 0; j < len(t.stage); j++ {
		v := t.stage[j]
		if j > 0 && t.stage[j-1] == v {
			continue
		}
		for i < old && t.runs.at(i).v < v {
			i++
		}
		if i == old || t.runs.at(i).v != v {
			n++
		}
	}
	t.runs.grow(n)
	i, w := old-1, n
	for j := len(t.stage) - 1; j >= 0; {
		v, c := t.stage[j], uint32(0)
		for ; j >= 0 && t.stage[j] == v; j-- {
			c++
		}
		for ; i >= 0 && t.runs.at(i).v > v; i-- {
			w--
			*t.runs.at(w) = *t.runs.at(i)
		}
		if i >= 0 && t.runs.at(i).v == v {
			c += t.runs.at(i).count
			i--
		}
		w--
		*t.runs.at(w) = run{v, c}
	}
	t.stage = t.stage[:0]
}

// Each calls visit once per run of the table, ascending, with its value
// and count, then once per sample too wide for it, with n = 1.
func (t *RunTable) Each(visit func(d time.Duration, n int)) {
	t.flush()
	for i := range t.runs.n {
		r := t.runs.at(i)
		visit(time.Duration(r.v), int(r.count))
	}
	for _, d := range t.wide {
		visit(d, 1)
	}
}

// RunPercentilesMs returns the requested percentiles, in milliseconds, of
// every sample the tables hold together. It sums their counts, then walks
// the merge of the tables in place to the one or two ranks each percentile
// lands on, converting only those samples, so the result is bit-identical
// to SortedPercentiles over every sample converted to ms and nothing but
// the result is allocated (for up to four tables). Tables stay valid for
// more Adds and reads. Returns nil without a sample.
func RunPercentilesMs(tables []*RunTable, ps ...float64) []float64 {
	var cs [4]cursor
	m := runMerge{cs: cs[:0]}
	n := 0
	for _, t := range tables {
		t.flush()
		slices.Sort(t.wide)
		neg, _ := slices.BinarySearch(t.wide, 0)
		m.cs = append(m.cs, cursor{t: t, neg: neg})
		n += len(t.wide)
		for i := range t.runs.n {
			n += int(t.runs.at(i).count)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileAt(n, p, func(k int) float64 { return m.at(k).Seconds() * 1000 })
	}
	return out
}

// runMerge walks the entries of several tables in ascending order, as one:
// a rank at or past the last one asked for goes on from where that walk
// stopped, so ascending ranks cost one pass between them.
type runMerge struct {
	cs     []cursor
	passed int // samples in the entries walked past
}

// cursor is one table's place in a runMerge. Its entries, ascending, are
// its neg negative wide samples, its runs, then its other wide samples.
type cursor struct {
	t      *RunTable
	neg, j int
}

// entry returns the cursor's next entry and its count, and false past the
// last.
func (c *cursor) entry() (time.Duration, int, bool) {
	t, j := c.t, c.j
	switch {
	case j < c.neg:
		return t.wide[j], 1, true
	case j-c.neg < t.runs.n:
		r := t.runs.at(j - c.neg)
		return time.Duration(r.v), int(r.count), true
	case j-t.runs.n < len(t.wide):
		return t.wide[j-t.runs.n], 1, true
	}
	return 0, 0, false
}

// at returns the k-th smallest sample, from 0; k must be below the total.
func (m *runMerge) at(k int) time.Duration {
	if k < m.passed {
		m.passed = 0
		for i := range m.cs {
			m.cs[i].j = 0
		}
	}
	for {
		var next *cursor
		var d time.Duration
		n := 0
		for i := range m.cs {
			if cd, cn, ok := m.cs[i].entry(); ok && (next == nil || cd < d) {
				next, d, n = &m.cs[i], cd, cn
			}
		}
		if k < m.passed+n {
			return d
		}
		m.passed += n
		next.j++
	}
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// StdDev returns the sample standard deviation (0 for fewer than 2 values).
func StdDev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	var ss float64
	for _, v := range vs {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(len(vs)-1))
}

// Summary aggregates repeated measurements of one quantity, as the paper
// does across its five repetitions per condition.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	// CI90 is the half-width of a 90% confidence interval on the mean
	// (normal approximation, z = 1.645) — the shaded bands of Figs 1–5, 15.
	CI90 float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of vs.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	s := Summary{
		N:      len(vs),
		Mean:   Mean(vs),
		Median: Median(vs),
		Min:    vs[0],
		Max:    vs[0],
	}
	for _, v := range vs {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	if len(vs) > 1 {
		s.CI90 = 1.645 * StdDev(vs) / math.Sqrt(float64(len(vs)))
	}
	return s
}

// TTR computes the paper's time-to-recovery metric (§4): the time between
// when the interruption ends and when the rolling median bitrate (window
// -wide, typically 5s) returns to frac times the nominal bitrate, where
// nominal is the median bitrate before the interruption started.
//
// It returns the recovery time and true, or 0 and false if the series never
// recovers within the data.
func TTR(s Series, intStart, intEnd time.Duration, window time.Duration, frac float64) (time.Duration, bool) {
	nominal := Median(s.Slice(0, intStart).Values)
	return RecoveryAfter(s, intEnd, window, nominal*frac)
}

// RecoveryAfter is the tail of TTR for callers that bring their own
// nominal: how long after from the rolling median (window wide, over the
// samples from `from` on only, so the first points use a partial window)
// first reaches level. It returns 0 and false when there is nothing to
// recover to (level <= 0) or the data ends first.
func RecoveryAfter(s Series, from, window time.Duration, level float64) (time.Duration, bool) {
	if level <= 0 {
		return 0, false
	}
	rolled := s.Slice(from, time.Duration(math.MaxInt64)).RollingMedian(window)
	for i, v := range rolled.Values {
		if v >= level {
			return rolled.Times[i] - from, true
		}
	}
	return 0, false
}

// Share returns a/(a+b), the fraction of the link used by the first flow;
// 0 if both are zero.
func Share(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
