package workload

import (
	"fmt"

	"autoglobe/internal/service"
)

// DefaultPeakActivity is the fraction of a service's user population
// active simultaneously during the main-activity peak. The paper
// dimensions hardware so that a standard blade handles at most 150 users
// of one service and runs "between 60 % and 80 % CPU during main
// activity in order to retain reserves for unpredictable load bursts";
// with capacities exactly matching Table 4 populations, a peak activity
// of 0.74 puts the baseline peak utilization at 79 % including base
// load — the top of the paper's band, so that 5 % more users push the
// sustained morning peak past the 80 % overload level ("if we increase
// the number of users by 5%, the installation immediately becomes
// overloaded").
const DefaultPeakActivity = 0.74

// CostModel captures the request path of the simulation: "First, a
// request increases the load of the affected service host for a short
// period. Before handling the request in the database, the lock
// management of the central instance (CI) is requested. Finally, the
// database sends the answer back to the application server."
//
// DBShare and CIShare are the fractions of the application-server demand
// that are mirrored, scaled by the service's RequestWeight, onto the
// subsystem's database and central instance.
type CostModel struct {
	DBShare float64
	CIShare float64
}

// DefaultCostModel returns the cost model used in the paper-shaped
// simulations. The database carries a substantial share of request work;
// the central instance only does lock bookkeeping.
func DefaultCostModel() CostModel {
	return CostModel{DBShare: 0.20, CIShare: 0.04}
}

// Jitter is a deterministic multiplicative noise source: load curves in
// real systems are not perfectly smooth, and short load peaks "are quite
// common" — the load monitoring system's watchTime exists to filter
// them. Jitter produces reproducible per-(entity, minute) factors.
type Jitter struct {
	Seed      uint64
	Amplitude float64 // e.g. 0.05 for ±5 %
}

// Factor returns the noise factor for an entity at a minute, in
// [1−Amplitude, 1+Amplitude]. The same (seed, entity, minute) always
// yields the same factor.
func (j Jitter) Factor(entity string, minute int) float64 {
	if j.Amplitude == 0 {
		return 1
	}
	h := j.Seed ^ 0x9e3779b97f4a7c15
	for _, c := range entity {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= uint64(minute) * 0xbf58476d1ce4e5b9
	// xorshift* finalizer
	h ^= h >> 12
	h ^= h << 25
	h ^= h >> 27
	h *= 0x2545f4914f6cdd1d
	u := float64(h>>11) / float64(1<<53) // uniform in [0, 1)
	return 1 + j.Amplitude*(2*u-1)
}

// Burst is a transient load spike on top of the diurnal pattern — the
// "unpredictable load bursts" the paper sizes its 60–80 % operating
// band for. It multiplies the active users during [Start, Start+Length)
// in absolute simulation minutes.
type Burst struct {
	Start  int
	Length int
	Factor float64
}

// active reports whether the burst covers the minute.
func (b Burst) active(minute int) bool {
	return minute >= b.Start && minute < b.Start+b.Length && b.Length > 0
}

// Source describes the workload of one service: its user population (or,
// for batch services, its job count), its activity profile, and its
// burst behaviour.
type Source struct {
	// Service names the service this source drives.
	Service string
	// Users is the population size (jobs for batch services).
	Users float64
	// Profile is the diurnal activity curve.
	Profile *Profile
	// Bursts are transient spikes layered on the profile.
	Bursts []Burst
}

// Generator produces the per-minute demand of all services.
type Generator struct {
	sources map[string]*Source
	jitter  Jitter
}

// NewGenerator builds a generator over the given sources.
func NewGenerator(jitter Jitter, sources ...Source) (*Generator, error) {
	g := &Generator{sources: make(map[string]*Source, len(sources)), jitter: jitter}
	for _, s := range sources {
		if s.Service == "" {
			return nil, fmt.Errorf("workload: source with empty service name")
		}
		if s.Profile == nil {
			return nil, fmt.Errorf("workload: source %q has no profile", s.Service)
		}
		if s.Users < 0 {
			return nil, fmt.Errorf("workload: source %q has negative users", s.Service)
		}
		if _, dup := g.sources[s.Service]; dup {
			return nil, fmt.Errorf("workload: duplicate source %q", s.Service)
		}
		g.sources[s.Service] = &s
	}
	return g, nil
}

// MustGenerator is NewGenerator panicking on error.
func MustGenerator(jitter Jitter, sources ...Source) *Generator {
	g, err := NewGenerator(jitter, sources...)
	if err != nil {
		panic(err)
	}
	return g
}

// ActiveUsers returns the number of users of the service active at the
// given simulation minute, including noise and bursts.
func (g *Generator) ActiveUsers(svc string, minute int) float64 {
	s, ok := g.sources[svc]
	if !ok {
		return 0
	}
	return s.Users * g.ActiveFraction(svc, minute) * g.jitter.Factor(svc, minute)
}

// ActiveFraction returns the activity fraction (profile value times any
// active burst factor, without noise) for a service.
func (g *Generator) ActiveFraction(svc string, minute int) float64 {
	return g.Activity(svc).At(minute)
}

// Activity is a resolved handle on one service's source: ActiveFraction
// without the name lookup. It follows later AddBurst calls; a service
// without a source reads 0.
type Activity struct{ s *Source }

// Activity resolves the handle of a service's source.
func (g *Generator) Activity(svc string) Activity { return Activity{g.sources[svc]} }

// At returns the service's activity fraction at the minute, as
// ActiveFraction does.
func (a Activity) At(minute int) float64 {
	if a.s == nil {
		return 0
	}
	v := a.s.Profile.At(minute)
	for _, b := range a.s.Bursts {
		if b.active(minute) {
			v *= b.Factor
		}
	}
	return v
}

// AddBurst layers a transient spike onto a service's workload. It
// returns an error for unknown services or non-positive parameters.
func (g *Generator) AddBurst(svc string, b Burst) error {
	s, ok := g.sources[svc]
	if !ok {
		return fmt.Errorf("workload: no source %q", svc)
	}
	if b.Length <= 0 || b.Factor <= 0 {
		return fmt.Errorf("workload: burst on %q needs positive length and factor", svc)
	}
	s.Bursts = append(s.Bursts, b)
	return nil
}

// PaperProfiles returns the activity profile of every application
// service in the paper's installation. LES, FI and PP follow the
// interactive workday pattern of Figure 10 (with small phase shifts so
// department peaks do not align perfectly); HR and CRM are interactive
// with the same shape; BW follows the nightly batch pattern.
func PaperProfiles(peak float64) map[string]*Profile {
	base := Interactive(peak)
	return map[string]*Profile{
		"LES": base,
		"FI":  base.Shift("interactive-fi", 20),
		"PP":  base.Shift("interactive-pp", 40),
		"HR":  base.Shift("interactive-hr", -15),
		"CRM": base.Shift("interactive-crm", 30),
		"BW":  BatchNight(peak),
	}
}

// PaperGenerator builds the workload generator of the paper's simulation
// at the given user multiplier: Table 4 populations scaled by multiplier
// (for BW the paper scales the load per batch job by the same factor,
// which is arithmetically identical), paper profiles, ±3 % noise.
func PaperGenerator(multiplier float64, seed uint64) *Generator {
	profiles := PaperProfiles(DefaultPeakActivity)
	users := service.PaperUsers() // Table 4
	sources := make([]Source, 0, len(users))
	for svc, u := range users {
		sources = append(sources, Source{Service: svc, Users: u * multiplier, Profile: profiles[svc]})
	}
	return MustGenerator(Jitter{Seed: seed, Amplitude: 0.03}, sources...)
}
