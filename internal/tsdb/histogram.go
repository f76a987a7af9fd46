package tsdb

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// Histogram-over-time queries. A telemetry.Histogram is exposed as
// cumulative `name_bucket{le="..."}` counter series plus `name_sum`
// and `name_count`; windowed distribution questions ("p99 over the
// last 30 s", "what fraction of requests beat the SLO this window")
// are answered from the *increase* of each bucket counter over the
// window — the distribution of only the observations that happened
// inside it, immune to everything the process observed before.

// bucketWindow reconstructs the per-bucket observation counts for the
// window: upper bounds ascending (+Inf last) with the non-cumulative
// count landing in each. Series are grouped across every label except
// "le", matching match, and summed — so a family split by server
// folds into one cluster-wide distribution unless match pins a server.
func (st *Store) bucketWindow(name string, match map[string]string, now time.Time, window time.Duration) (bounds []float64, counts []float64, ok bool) {
	// The exposition skips empty buckets, so a bound absent from a
	// scrape does NOT mean "cumulative count 0 at that bound" — it
	// means the bucket's own count was 0, and the cumulative value
	// there equals that of the largest exposed bound below it. Window
	// increases are therefore computed from two cumulative step
	// curves — the family's state at the window's opening edge and at
	// its newest sample — evaluated on the union of their bounds.
	// Series are grouped by their non-le labels first (each scrape of
	// one process stamps all its buckets with one timestamp) and the
	// per-group increases summed per bound.
	type serie struct {
		bound  float64
		points []Point
	}
	groups := make(map[string][]serie)
	for _, s := range st.Select(name+"_bucket", match) {
		le := s.Label("le")
		if le == "" {
			continue
		}
		bound, err := parseBound(le)
		if err != nil {
			continue
		}
		rest := make(map[string]string, len(s.Labels))
		for k, v := range s.Labels {
			if k != "le" {
				rest[k] = v
			}
		}
		key := seriesKey(s.Name, rest)
		groups[key] = append(groups[key], serie{bound: bound, points: s.Points})
	}
	incByBound := make(map[float64]float64)
	any := false
	for _, group := range groups {
		// The +Inf bucket is always exposed, so it anchors the group's
		// window: its opening-edge and newest points give the two
		// timestamps the step curves are evaluated at.
		var ref []Point
		for _, s := range group {
			if math.IsInf(s.bound, 1) {
				ref = s.points
			}
		}
		if ref == nil {
			// Foreign exposition without +Inf: anchor on the
			// longest series instead.
			for _, s := range group {
				if len(s.points) > len(ref) {
					ref = s.points
				}
			}
		}
		refPts := windowPoints(ref, now, window)
		if len(refPts) < 2 {
			continue // no baseline inside the window for this group
		}
		any = true
		tStart, tEnd := refPts[0].T, refPts[len(refPts)-1].T
		gBounds := make([]float64, 0, len(group))
		startVal := make(map[float64]float64)
		endVal := make(map[float64]float64)
		for _, s := range group {
			gBounds = append(gBounds, s.bound)
			if v, ok := valueAt(s.points, tStart); ok {
				startVal[s.bound] = v
			}
			if v, ok := valueAt(s.points, tEnd); ok {
				endVal[s.bound] = v
			}
		}
		sort.Float64s(gBounds)
		var sPrev, ePrev float64
		for _, b := range gBounds {
			sv, ok := startVal[b]
			if !ok {
				sv = sPrev // bucket unexposed then: carry the curve
			}
			sPrev = sv
			ev, ok := endVal[b]
			if !ok {
				ev = ePrev
			}
			ePrev = ev
			inc := ev - sv
			if inc < 0 {
				inc = ev // counter reset: the process restarted
			}
			incByBound[b] += inc
		}
	}
	if !any {
		return nil, nil, false
	}
	bounds = make([]float64, 0, len(incByBound))
	for b := range incByBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	counts = make([]float64, len(bounds))
	var prev float64
	for i, b := range bounds {
		// De-cumulate: each exposition bucket counts observations at or
		// below its bound, so the window increase of bound i minus
		// bound i-1 is the mass inside (bound[i-1], bound[i]]. Clamp
		// at zero: per-group reset handling can leave tiny artifacts.
		c := incByBound[b] - prev
		if c < 0 {
			c = 0
		}
		counts[i] = c
		prev = incByBound[b]
	}
	return bounds, counts, true
}

// valueAt returns the series value at exactly time t (scrapes stamp
// every sample of one pass with one timestamp).
func valueAt(pts []Point, t time.Time) (float64, bool) {
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].T.Equal(t) {
			return pts[i].V, true
		}
		if pts[i].T.Before(t) {
			break
		}
	}
	return 0, false
}

// lowerBound reconstructs the lower edge of the exposed bucket at
// index i. The registry skips never-hit buckets in its exposition, so
// the previous *exposed* bound can be far below the bucket's true
// lower edge; for the log-bucketed layout every telemetry.Histogram
// uses, the true lower edge of a bucket bounded by u is u/2, so take
// the tighter of the two. (For a foreign exporter with narrower
// buckets this stays a valid lower bound — just a conservative one.)
func lowerBound(bounds []float64, i int) float64 {
	half := bounds[i] / 2
	if math.IsInf(bounds[i], 1) {
		half = 0
	}
	if i > 0 && bounds[i-1] > half {
		return bounds[i-1]
	}
	return half
}

func parseBound(le string) (float64, error) {
	if le == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(le, 64)
}

// QuantileOverTime estimates the q-quantile (0 <= q <= 1) of the
// observations recorded in the window, by linear interpolation within
// the bucket holding the target rank — the same estimator
// telemetry.Histogram.Quantile applies to its full-lifetime counts.
// The +Inf bucket reports the last finite bound (the observed max is
// not recoverable from the exposition).
func (st *Store) QuantileOverTime(name string, match map[string]string, q float64, now time.Time, window time.Duration) (float64, bool) {
	bounds, counts, ok := st.bucketWindow(name, match, now, window)
	if !ok {
		return 0, false
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * total
	var cum float64
	for i, c := range counts {
		if cum+c >= target && c > 0 {
			upper := bounds[i]
			if math.IsInf(upper, 1) {
				return lowerBound(bounds, i), true
			}
			lower := lowerBound(bounds, i)
			frac := (target - cum) / c
			return lower + frac*(upper-lower), true
		}
		cum += c
	}
	// All mass in the +Inf bucket: report the last finite bound.
	for i := len(bounds) - 1; i >= 0; i-- {
		if !math.IsInf(bounds[i], 1) {
			return bounds[i], true
		}
	}
	return 0, false
}

// BurnOverTime returns the fraction of windowed observations that
// exceeded slo — the error-budget burn rate of a latency SLO. An
// observation is counted as violating when it lands in a bucket whose
// entire range is above slo; the bucket straddling slo contributes
// pro-rata by linear interpolation.
func (st *Store) BurnOverTime(name string, match map[string]string, slo float64, now time.Time, window time.Duration) (float64, bool) {
	bounds, counts, ok := st.bucketWindow(name, match, now, window)
	if !ok {
		return 0, false
	}
	var total, over float64
	for i, c := range counts {
		total += c
		lower := lowerBound(bounds, i)
		upper := bounds[i]
		switch {
		case lower >= slo:
			over += c
		case upper > slo && !math.IsInf(upper, 1):
			over += c * (upper - slo) / (upper - lower)
		case math.IsInf(upper, 1) && lower < slo:
			// Overflow bucket with slo above the last finite bound:
			// everything in it is beyond the largest tracked latency,
			// count it as violating.
			over += c
		}
	}
	if total == 0 {
		return 0, false
	}
	return over / total, true
}
