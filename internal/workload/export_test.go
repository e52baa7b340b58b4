package workload

import "fmt"

// Functions and methods only this package's tests call.

// Services returns the names of all sources.
func (g *Generator) Services() []string {
	out := make([]string, 0, len(g.sources))
	for n := range g.sources {
		out = append(out, n)
	}
	return out
}

// Users returns the population of a service.
func (g *Generator) Users(svc string) float64 { return g.sources[svc].Users }

// Peak returns the maximum value over the day (sampled per minute).
func (p *Profile) Peak() float64 {
	peak := 0.0
	for m := 0; m < MinutesPerDay; m++ {
		if v := p.At(m); v > peak {
			peak = v
		}
	}
	return peak
}

// Mean returns the mean value over the day (sampled per minute).
func (p *Profile) Mean() float64 {
	sum := 0.0
	for m := 0; m < MinutesPerDay; m++ {
		sum += p.At(m)
	}
	return sum / MinutesPerDay
}

// Scale returns a copy with every value multiplied by factor (>= 0).
func (p *Profile) Scale(name string, factor float64) *Profile {
	if factor < 0 {
		panic("workload: negative scale factor")
	}
	pts := make([]Point, 0, len(p.points))
	for _, pt := range p.points {
		pts = append(pts, Point{Minute: pt.Minute, Value: pt.Value * factor})
	}
	return MustProfile(name, pts...)
}

// FromSeries builds a profile from a measured per-minute series (e.g.
// the load archive's aggregated day profile), anchoring one point per
// stride minutes. This closes the loop the paper's §7 envisions:
// observe a landscape, extract its daily pattern, and replay it against
// candidate configurations.
func FromSeries(name string, series []float64, stride int) (*Profile, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("workload: empty series for profile %q", name)
	}
	if len(series) > MinutesPerDay {
		return nil, fmt.Errorf("workload: series for %q has %d samples, max %d", name, len(series), MinutesPerDay)
	}
	if stride <= 0 {
		stride = 15
	}
	var pts []Point
	for m := 0; m < len(series); m += stride {
		v := series[m]
		if v < 0 {
			return nil, fmt.Errorf("workload: negative sample at minute %d", m)
		}
		pts = append(pts, Point{Minute: m, Value: v})
	}
	return NewProfile(name, pts...)
}
