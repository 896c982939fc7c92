// Package trace records time series and summary statistics from
// simulation runs and renders them as CSV — the raw material for every
// figure and table in README's "Paper experiments" section.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Point is one sample of a series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// At returns the value of the latest sample at or before t (zero-order
// hold), and false if no sample precedes t.
func (s *Series) At(t time.Duration) (float64, bool) {
	idx := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if idx == 0 {
		return 0, false
	}
	return s.Points[idx-1].V, true
}

// Window returns the samples with T in [from, to).
func (s *Series) Window(from, to time.Duration) []Point {
	var out []Point
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Recorder collects multiple named series.
type Recorder struct {
	order  []string
	series map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns (creating if needed) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Names returns the series names in creation order.
func (r *Recorder) Names() []string { return append([]string(nil), r.order...) }

// WriteCSV renders all series on a shared time axis (union of sample
// times, zero-order hold per series).
func (r *Recorder) WriteCSV(w io.Writer) error {
	timesSet := make(map[time.Duration]bool)
	for _, s := range r.series {
		for _, p := range s.Points {
			timesSet[p.T] = true
		}
	}
	times := make([]time.Duration, 0, len(timesSet))
	for t := range timesSet {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	header := make([]string, 0, len(r.order)+1)
	header = append(header, "t_seconds")
	header = append(header, r.order...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, t := range times {
		row[0] = strconv.FormatFloat(t.Seconds(), 'f', 3, 64)
		for i, name := range r.order {
			if v, ok := r.series[name].At(t); ok {
				row[i+1] = strconv.FormatFloat(v, 'f', 4, 64)
			} else {
				row[i+1] = ""
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a sample of values.
type Stats struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	P50  float64
	P95  float64
	P99  float64
}

// Summarize computes summary statistics (returns zero Stats for empty
// input).
func Summarize(values []float64) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Stats{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
		P50:  percentile(sorted, 0.50),
		P95:  percentile(sorted, 0.95),
		P99:  percentile(sorted, 0.99),
	}
}

// percentile returns the p-quantile (nearest-rank on a sorted slice).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// DurationStats summarizes durations (reported in the same units).
func DurationStats(ds []time.Duration) Stats {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return Summarize(vs)
}
