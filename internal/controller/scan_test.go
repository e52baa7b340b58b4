package controller

import (
	"autoglobe/internal/archive"
	"autoglobe/internal/placement"
	"autoglobe/internal/service"
)

// scanCandidates is the candidate set without the placement index, the
// reference the index is checked against: it walks the cluster, skips
// excluded and protected hosts, applies the action's performance-index
// relation to the instance's current host, then asks CanPlace. Every
// ref is fresh, so its score memo never hits.
func (c *Controller) scanCandidates(a service.Action, svcName, instID string, minute int, exclude map[string]bool) []*placement.HostRef {
	var srcPI float64
	switch a {
	case service.ActionScaleOut, service.ActionStart:
	case service.ActionScaleUp, service.ActionScaleDown, service.ActionMove:
		inst, ok := c.dep.Instance(instID)
		if !ok {
			return nil
		}
		src, ok := c.dep.Cluster().Host(inst.Host)
		if !ok {
			return nil
		}
		srcPI = src.PerformanceIndex
	default:
		return nil
	}
	var out []*placement.HostRef
	for _, name := range c.dep.Cluster().Names() {
		if exclude[name] || c.HostProtected(name, minute) {
			continue
		}
		h, _ := c.dep.Cluster().Host(name)
		switch pi := h.PerformanceIndex; a {
		case service.ActionScaleUp:
			if pi <= srcPI {
				continue
			}
		case service.ActionScaleDown:
			if pi >= srcPI {
				continue
			}
		case service.ActionMove:
			if pi != srcPI {
				continue
			}
		}
		if c.dep.CanPlace(svcName, name) != nil {
			continue
		}
		out = append(out, &placement.HostRef{Host: h, Entity: archive.HostEntity(name)})
	}
	return out
}

// scanSelectHost is selectHostIn over scanCandidates, the reference a
// live selection must equal bit for bit: the same rule base lookup, each
// fresh ref scored through scoreRef — a memo miss every time — and the
// same reduction by better.
func (c *Controller) scanSelectHost(rs *ruleSet, a service.Action, svcName, instID string, minute int) (string, float64) {
	rb, ok := rs.selection[a]
	if !ok && a == service.ActionStart {
		rb = rs.selection[service.ActionScaleOut]
	}
	if rb == nil {
		return "", 0
	}
	b := binderFor(rb)
	vec := make([]float64, len(b.slots))
	var best hostBest
	for _, ref := range c.scanCandidates(a, svcName, instID, minute, nil) {
		if score, ok := c.scoreRef(b, vec, ref); ok && score >= c.cfg.MinHostScore && better(score, ref, best) {
			best = hostBest{ref: ref, score: score}
		}
	}
	if best.ref == nil {
		return "", 0
	}
	return best.ref.Host.Name, best.score
}
