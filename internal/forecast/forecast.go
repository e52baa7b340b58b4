// Package forecast implements the paper's load-prediction extension
// (Section 7: "we work on predicting the future load of services based
// on historic data stored in the load archive using pattern matching
// ... The reservations and load prediction can be used to improve the
// action and host selection process of the controller"), following the
// feed-forward companion paper [8] (Gmach et al., CAiSE'05 workshops):
// short-term forecasting for services with periodic behaviour.
//
// The predictor matches the current load against the archive's
// aggregated day profile (the historical mean per minute of day) and
// extrapolates: prediction(t+h) = profile(t+h) + decay(h) · (now −
// profile(t)). The deviation term carries today's level shift (e.g. 15 %
// more users than usual) into the forecast; the exponential decay
// reflects that pattern knowledge dominates as the horizon grows.
//
// Every prediction carries a confidence in [0, 1] derived from the
// archive's per-minute-of-day observation counts: a minute backed by
// every observed day predicts with confidence 1, a minute seen on only
// one of five days with 0.2, a never-observed minute with 0. The
// controller gates proactive scaling on this value, so a service with a
// gappy history (restarts, late deployment, daylight-only traffic)
// cannot trigger phantom scale-outs from a profile hole.
package forecast

import (
	"math"

	"autoglobe/internal/archive"
)

// Predictor forecasts entity loads from the load archive.
type Predictor struct {
	arch *archive.Archive
	// DeviationHalfLife is the horizon (minutes) after which today's
	// deviation from the historical pattern has half its weight.
	DeviationHalfLife float64
	// MinHistory is the number of samples an entity needs before the
	// pattern is trusted (default: half a day).
	MinHistory int
}

// New returns a predictor over the archive and turns the archive's day
// profiles on. Should that fail — a store read of a reopened archive —
// the archive keeps none and the predictor forecasts nothing until
// KeepProfiles succeeds; controller.New retries it and returns the error.
func New(arch *archive.Archive) *Predictor {
	_ = arch.KeepProfiles() // a failure leaves no profiles: no forecast, and a retry (controller.New) reports it
	return &Predictor{arch: arch, DeviationHalfLife: 60, MinHistory: archive.MinutesPerDay / 2}
}

// KeepProfiles turns the day profiles of the predictor's archive on: a
// no-op once they are kept (see archive.Archive.KeepProfiles).
func (p *Predictor) KeepProfiles() error { return p.arch.KeepProfiles() }

// Entity resolves an archive entity once, so the controller's proactive
// scan can gate a forecast on the measured present (Entity.Latest) and
// run PredictPeakOf on the same handle: one map lookup per entity.
func (p *Predictor) Entity(entity string) archive.Entity { return p.arch.Entity(entity) }

// anchor is the horizon-independent half of a forecast, resolved once
// per evaluation: the entity, its observed depth, and what the latest
// sample says about today.
type anchor struct {
	e          archive.Entity
	days       int
	have       bool    // a latest sample exists
	confidence float64 // profile evidence at the latest sample's minute
	deviation  float64 // latest load minus the profile at its minute
	halfLife   float64
}

// anchor resolves the horizon-independent half. ok is false when the
// archive holds too little history for a pattern at all — or history
// but no pattern: a service instance keeps no day profile, and a decayed
// deviation alone is not a forecast.
func (p *Predictor) anchor(e archive.Entity) (a anchor, ok bool) {
	a = anchor{e: e, days: e.DaysObserved(), halfLife: p.DeviationHalfLife}
	if n := e.Len(); n < p.MinHistory || n > 0 && a.days == 0 {
		return a, false
	}
	if a.halfLife <= 0 {
		a.halfLife = 60
	}
	var latest archive.Sample
	if latest, a.have = e.Latest(); a.have {
		a.confidence = a.evidence(latest.Minute)
		a.deviation = latest.CPU - e.ProfileAt(latest.Minute)
	}
	return a, true
}

// evidence rates how well the profile backs a minute of day: its
// observation count over the deepest count any minute has (≈ days).
func (a *anchor) evidence(minute int) float64 {
	c := a.e.ObservationCount(minute)
	switch {
	case a.days <= 0:
		return 0
	case c >= a.days:
		return 1
	}
	return float64(c) / float64(a.days)
}

// at is the one forecast kernel — Predict is a step of it, PredictPeakOf
// a loop: the prediction for minute target, h minutes ahead, and the
// weaker of the target's and the anchor's evidence as its confidence.
func (a *anchor) at(target, h int) (load, confidence float64) {
	load, confidence = a.e.ProfileAt(target), a.evidence(target)
	if !a.have {
		return load, confidence
	}
	if a.confidence < confidence {
		confidence = a.confidence
	}
	load += a.deviation * math.Exp2(-float64(h)/a.halfLife)
	if load < 0 {
		load = 0
	}
	return load, confidence
}

// Predict forecasts the CPU load of an entity at now+horizon minutes.
// confidence in [0, 1] rates the profile evidence behind the forecast:
// the weaker of the target minute's and the anchor minute's per-day
// observation depth. ok is false when the archive holds too little
// history for a pattern at all; confidence is 0 then. The call is
// allocation-free — safe on the controller's per-tick hot path.
func (p *Predictor) Predict(entity string, now, horizon int) (load, confidence float64, ok bool) {
	a, ok := p.anchor(p.arch.Entity(entity))
	if horizon < 0 || !ok {
		return 0, 0, false
	}
	load, confidence = a.at(now+horizon, horizon)
	return load, confidence, true
}

// PredictPeakOf returns the maximum predicted load of a resolved entity
// over the next horizon minutes (sampled per minute) — what a proactive
// controller compares against the overload threshold — and the weakest
// per-minute confidence across the window: a single profile hole inside
// the horizon caps the whole peak's confidence. One anchor, then horizon
// kernel steps — no map lookup, no allocation.
func (p *Predictor) PredictPeakOf(e archive.Entity, now, horizon int) (peak, confidence float64, ok bool) {
	a, ok := p.anchor(e)
	if horizon <= 0 || !ok {
		return 0, 0, false
	}
	confidence = 1
	for h := 1; h <= horizon; h++ {
		v, c := a.at(now+h, h)
		if v > peak {
			peak = v
		}
		if c < confidence {
			confidence = c
		}
	}
	return peak, confidence, true
}
