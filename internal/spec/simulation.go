package spec

import (
	"fmt"

	"autoglobe/internal/service"
	"autoglobe/internal/workload"
)

// Simulation carries the scenario parameters of a declarative landscape
// description: workload profiles, monitoring tunables and controller
// settings — the paper's simulated services and servers are described
// with the same XML language as real ones, and so is the simulation
// around them.
type Simulation struct {
	// Hours is the simulated duration (default 80).
	Hours int `xml:"hours,attr,omitempty"`
	// Multiplier scales the declared user populations (default 1).
	Multiplier float64 `xml:"multiplier,attr,omitempty"`
	// Seed drives load noise and failure injection.
	Seed uint64 `xml:"seed,attr,omitempty"`
	// UserRedistribution is "sticky" (constrained mobility) or
	// "rebalance" (full mobility); empty keeps sticky.
	UserRedistribution string `xml:"userRedistribution,attr,omitempty"`
	// FluctuationPerHour, LoginAffinity and JitterAmplitude tune the
	// user behaviour model; zero keeps the defaults.
	FluctuationPerHour float64 `xml:"fluctuationPerHour,attr,omitempty"`
	LoginAffinity      float64 `xml:"loginAffinity,attr,omitempty"`
	JitterAmplitude    float64 `xml:"jitterAmplitude,attr,omitempty"`
	// OverloadThreshold, watch times and the idle threshold configure
	// the load monitoring system; zero keeps the paper's values.
	OverloadThreshold    float64 `xml:"overloadThreshold,attr,omitempty"`
	OverloadWatchMinutes int     `xml:"overloadWatchMinutes,attr,omitempty"`
	MemOverloadThreshold float64 `xml:"memOverloadThreshold,attr,omitempty"`
	IdleThresholdBase    float64 `xml:"idleThresholdBase,attr,omitempty"`
	IdleWatchMinutes     int     `xml:"idleWatchMinutes,attr,omitempty"`
	// ProtectionMinutes configures the controller's oscillation guard.
	ProtectionMinutes int `xml:"protectionMinutes,attr,omitempty"`
	// ForecastHorizon enables the proactive forecasting extension.
	ForecastHorizon int `xml:"forecastHorizon,attr,omitempty"`
	// DBShare and CIShare set the request cost model; zero keeps the
	// defaults.
	DBShare float64 `xml:"dbShare,attr,omitempty"`
	CIShare float64 `xml:"ciShare,attr,omitempty"`
	// FailuresPerDay enables failure injection.
	FailuresPerDay float64 `xml:"failuresPerDay,attr,omitempty"`
	// Profiles are the services' diurnal activity curves.
	Profiles []ProfileSpec `xml:"profile"`
}

// ProfileSpec declares one service's activity curve as anchor points.
type ProfileSpec struct {
	Service string         `xml:"service,attr"`
	Points  []ProfilePoint `xml:"point"`
}

// ProfilePoint is one anchor of a piecewise-linear curve.
type ProfilePoint struct {
	Minute int     `xml:"minute,attr"`
	Value  float64 `xml:"value,attr"`
}

// BuildProfile materializes the declared curve.
func (p ProfileSpec) BuildProfile() (*workload.Profile, error) {
	pts := make([]workload.Point, 0, len(p.Points))
	for _, pt := range p.Points {
		pts = append(pts, workload.Point{Minute: pt.Minute, Value: pt.Value})
	}
	prof, err := workload.NewProfile(p.Service, pts...)
	if err != nil {
		return nil, fmt.Errorf("spec: profile for %q: %w", p.Service, err)
	}
	return prof, nil
}

// Mobility is the declared user-redistribution policy as a mobility
// scenario: "rebalance" is full mobility; "sticky", or no <simulation>
// section at all, is constrained mobility.
func (l *Landscape) Mobility() service.Mobility {
	if l.Simulation != nil && l.Simulation.UserRedistribution == "rebalance" {
		return service.FullMobility
	}
	return service.ConstrainedMobility
}

// validateSimulation checks the simulation section against the declared
// services.
func (l *Landscape) validateSimulation() error {
	if l.Simulation == nil {
		return nil
	}
	s := l.Simulation
	switch s.UserRedistribution {
	case "", "sticky", "rebalance":
	default:
		return fmt.Errorf("spec: userRedistribution %q (want sticky or rebalance)", s.UserRedistribution)
	}
	if s.Multiplier < 0 || s.Hours < 0 {
		return fmt.Errorf("spec: negative multiplier or hours")
	}
	declared := make(map[string]bool, len(l.Services))
	for _, svc := range l.Services {
		declared[svc.Name] = true
	}
	seen := make(map[string]bool)
	for _, p := range s.Profiles {
		if !declared[p.Service] {
			return fmt.Errorf("spec: profile for undeclared service %q", p.Service)
		}
		if seen[p.Service] {
			return fmt.Errorf("spec: duplicate profile for service %q", p.Service)
		}
		seen[p.Service] = true
		if _, err := p.BuildProfile(); err != nil {
			return err
		}
	}
	return nil
}
