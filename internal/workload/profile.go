// Package workload generates the synthetic load the simulation studies
// drive AutoGlobe with: diurnal activity profiles ("load curves generated
// by simulated services follow predetermined patterns that can be
// observed in many companies running SAP software"), user populations per
// service, the request cost model (application server → central instance
// → database), and batch job loads for the Business Warehouse.
package workload

import (
	"fmt"
	"sort"
)

// MinutesPerDay is the length of the simulated day.
const MinutesPerDay = 24 * 60

// Point anchors an activity value at a minute of the day.
type Point struct {
	Minute int     // 0 … 1439
	Value  float64 // activity fraction, usually in [0, 1]
}

// Profile is a piecewise-linear, 24h-periodic activity curve. The value
// at a time between anchor points is linearly interpolated; the curve
// wraps around midnight.
type Profile struct {
	points []Point
}

// NewProfile builds a profile from anchor points. Points need not be
// sorted; duplicate minutes are an error. name labels the errors.
func NewProfile(name string, points ...Point) (*Profile, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: profile %q has no points", name)
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Minute < ps[j].Minute })
	for i, p := range ps {
		if p.Minute < 0 || p.Minute >= MinutesPerDay {
			return nil, fmt.Errorf("workload: profile %q: minute %d out of range", name, p.Minute)
		}
		if i > 0 && ps[i-1].Minute == p.Minute {
			return nil, fmt.Errorf("workload: profile %q: duplicate minute %d", name, p.Minute)
		}
		if p.Value < 0 {
			return nil, fmt.Errorf("workload: profile %q: negative value at minute %d", name, p.Minute)
		}
	}
	return &Profile{points: ps}, nil
}

// MustProfile is NewProfile panicking on error, for profile literals.
func MustProfile(name string, points ...Point) *Profile {
	p, err := NewProfile(name, points...)
	if err != nil {
		panic(err)
	}
	return p
}

// At returns the interpolated activity at the given minute of the
// simulation. Minutes beyond one day wrap (the curve is periodic);
// negative minutes wrap backwards.
func (p *Profile) At(minute int) float64 {
	m := ((minute % MinutesPerDay) + MinutesPerDay) % MinutesPerDay
	n := len(p.points)
	if n == 1 {
		return p.points[0].Value
	}
	// Find the first anchor at or after m.
	i := sort.Search(n, func(i int) bool { return p.points[i].Minute >= m })
	var a, b Point
	switch i {
	case 0:
		// Before the first anchor: interpolate from the last anchor
		// across midnight.
		a, b = p.points[n-1], p.points[0]
		return lerpWrapped(a, b, m)
	case n:
		// After the last anchor: wrap to the first.
		a, b = p.points[n-1], p.points[0]
		return lerpWrapped(a, b, m)
	default:
		a, b = p.points[i-1], p.points[i]
		if a.Minute == m {
			return a.Value
		}
		t := float64(m-a.Minute) / float64(b.Minute-a.Minute)
		return a.Value + t*(b.Value-a.Value)
	}
}

// lerpWrapped interpolates between the day's last anchor a and first
// anchor b across midnight for minute m (either after a or before b).
func lerpWrapped(a, b Point, m int) float64 {
	span := MinutesPerDay - a.Minute + b.Minute
	if span == 0 {
		return a.Value
	}
	var off int
	if m >= a.Minute {
		off = m - a.Minute
	} else {
		off = MinutesPerDay - a.Minute + m
	}
	t := float64(off) / float64(span)
	return a.Value + t*(b.Value-a.Value)
}

func hm(h, m int) int { return h*60 + m }

// Interactive returns the paper's interactive workday pattern (Figure 10,
// LES curve): work starts at eight o'clock; three peaks — one in the
// morning, one before midday and one before the employees leave — and a
// quiet night. The curve is normalized so its peak is peak (the fraction
// of the user population active simultaneously; the paper dimensions
// hardware so blades run at 60–80 % CPU during main activity).
func Interactive(peak float64) *Profile {
	scale := peak / 1.0
	return MustProfile("interactive",
		Point{hm(0, 0), 0.04 * scale},
		Point{hm(6, 0), 0.04 * scale},
		Point{hm(8, 0), 0.45 * scale},   // employees start to work
		Point{hm(9, 15), 1.00 * scale},  // morning peak
		Point{hm(10, 15), 1.00 * scale}, // … sustained through mid-morning
		Point{hm(11, 0), 0.82 * scale},
		Point{hm(11, 45), 0.97 * scale}, // peak before midday
		Point{hm(13, 0), 0.62 * scale},  // lunch dip
		Point{hm(14, 30), 0.80 * scale},
		Point{hm(16, 15), 0.95 * scale}, // peak before leaving
		Point{hm(18, 0), 0.40 * scale},
		Point{hm(20, 0), 0.10 * scale},
		Point{hm(22, 0), 0.04 * scale},
	)
}

// BatchNight returns the paper's Business Warehouse pattern (Figure 10,
// BW curve): several heavy-load batch jobs during the night, few user
// requests on aggregated data during the day.
func BatchNight(peak float64) *Profile {
	scale := peak / 1.0
	return MustProfile("batch-night",
		Point{hm(0, 0), 1.00 * scale}, // nightly batch window in full swing
		Point{hm(4, 30), 0.95 * scale},
		Point{hm(6, 0), 0.30 * scale}, // batch window ends
		Point{hm(8, 0), 0.12 * scale},
		Point{hm(12, 0), 0.18 * scale}, // few daytime queries
		Point{hm(17, 0), 0.12 * scale},
		Point{hm(20, 30), 0.35 * scale},
		Point{hm(22, 0), 0.90 * scale}, // batch window opens
		Point{hm(23, 0), 1.00 * scale},
	)
}

// Flat returns a constant profile, useful in tests and for services with
// time-independent load.
func Flat(v float64) *Profile {
	return MustProfile("flat", Point{0, v})
}

// Shift returns a copy of the profile shifted by the given number of
// minutes (positive = later in the day), wrapping around midnight.
// Department peaks in real installations are staggered; the paper's
// simulation uses such phase shifts between services.
func (p *Profile) Shift(name string, minutes int) *Profile {
	pts := make([]Point, 0, len(p.points))
	for _, pt := range p.points {
		pts = append(pts, Point{
			Minute: ((pt.Minute+minutes)%MinutesPerDay + MinutesPerDay) % MinutesPerDay,
			Value:  pt.Value,
		})
	}
	return MustProfile(name, pts...)
}
