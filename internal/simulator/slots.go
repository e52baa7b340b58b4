package simulator

import (
	"slices"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/workload"
)

// hostSlot is one host as the minute reads it. Its load is
// computeDemand's sum over the host's instances; a mutation touching the
// host clears fresh (Deployment.Watch), and hostRaw sums it afresh, so a
// fresh load always equals a sum over InstancesOn.
type hostSlot struct {
	name    string
	perf    float64 // performance index
	memMB   int
	units   float64 // summed demand, in performance-index units
	memUsed int
	// The load: units and memUsed over the host's capacity.
	cpu, mem float64
	fresh    bool
	watch    monitor.Watch // observe's handle; dead until registered

	// The host's result accumulators, which result folds into the
	// Result's maps.
	series                      []float64
	overload, streak, maxStreak int
}

// settle turns the summed units and memory into the host's load.
func (h *hostSlot) settle() {
	h.cpu, h.mem = h.units/h.perf, float64(h.memUsed)/float64(h.memMB)
	h.fresh = true
}

// svcSlot is one catalog service as the minute reads it.
type svcSlot struct {
	svc      *service.Service
	activity workload.Activity
	frac     float64 // the minute's ActiveFraction, set by computeDemand
	sub      int     // the subsystem's index in subDB and subCI
	// The service's instances in the snapshot, in ID order.
	insts []*instSlot
	watch monitor.Watch // observe's handle; dead until registered

	userMinutes, degradedUserMinutes float64 // result accumulators
}

// instSlot is one instance of the deployment's snapshot.
type instSlot struct {
	inst   *service.Instance
	svc    *svcSlot
	host   *hostSlot      // inst.Host's slot, resolved again when the instance moves
	demand float64        // requested CPU this minute, in performance-index units
	log    archive.Entity // observe's archive handle, resolved at first sight
	seen   int            // the refresh that last found the instance
	// The instance's "SVC@Host" key in Result.ServiceHostSeries, made
	// for the host slot keyHost; recorded services only.
	key     string
	keyHost *hostSlot
}

// buildSlots resolves the landscape once — the pooled hosts, named in
// cluster order, from one slab, services from another — and subscribes
// the host slots to pool and allocation changes. Instance slots are
// built by the first refresh.
func (s *Simulator) buildSlots(hosts []string) {
	cl, cat := s.dep.Cluster(), s.dep.Catalog()
	slab := make([]hostSlot, len(hosts))
	s.byName = make(map[string]*hostSlot, len(hosts))
	s.hosts = make([]*hostSlot, 0, len(hosts))
	for i, name := range hosts {
		s.byName[name] = &slab[i]
		h, _ := cl.Host(name)
		s.pool(h)
	}
	cl.Watch(func(h cluster.Host, added bool) {
		if added {
			s.pool(h)
		} else {
			s.hosts = slices.DeleteFunc(s.hosts, func(sl *hostSlot) bool { return sl.name == h.Name })
		}
	})
	s.dep.Watch(func(host string) {
		if h := s.byName[host]; h != nil {
			h.fresh = false
		}
	})

	// A subsystem's index is that of its first service.
	s.svcs = make([]svcSlot, cat.Len())
	for i, svc := range cat.All() {
		sub := i
		for j := range s.svcs[:i] {
			if s.svcs[j].svc.Subsystem == svc.Subsystem {
				sub = s.svcs[j].sub
				break
			}
		}
		s.svcs[i] = svcSlot{svc: svc, activity: s.gen.Activity(svc.Name), sub: sub}
	}
	sums := make([]float64, 2*len(s.svcs))
	s.subDB, s.subCI = sums[:len(s.svcs)], sums[len(s.svcs):]
	s.instOf = make(map[*service.Instance]*instSlot)
}

// pool appends a host that joined the pool to the cluster-ordered slots,
// reusing the slot of a host pooled before: its result accumulators go
// on.
func (s *Simulator) pool(h cluster.Host) {
	sl := s.byName[h.Name]
	if sl == nil {
		sl = new(hostSlot)
		s.byName[h.Name] = sl
	}
	sl.name, sl.perf, sl.memMB, sl.fresh = h.Name, h.PerformanceIndex, h.MemoryMB, false
	s.hosts = append(s.hosts, sl)
}

// refresh aligns the instance slots with the deployment's Instances
// snapshot. The deployment replaces the snapshot on every Start and Stop
// and never edits one, so the same first element and length mean the
// same snapshot. An instance new to the snapshot gets a slot with no
// demand — none was computed for it this minute.
func (s *Simulator) refresh() {
	all := s.dep.Instances()
	if len(all) == len(s.all) && (len(all) == 0 || &all[0] == &s.all[0]) {
		return
	}
	s.all = all
	s.epoch++
	s.insts = s.insts[:0]
	for i := range s.svcs {
		s.svcs[i].insts = s.svcs[i].insts[:0]
	}
	for _, inst := range all {
		is := s.instOf[inst]
		if is == nil {
			is = &instSlot{inst: inst, svc: s.svcSlot(inst.Service)}
			s.instOf[inst] = is
		}
		is.seen = s.epoch
		s.insts = append(s.insts, is)
		is.svc.insts = append(is.svc.insts, is)
	}
	if len(s.instOf) > len(all) {
		for inst, is := range s.instOf {
			if is.seen != s.epoch {
				delete(s.instOf, inst)
			}
		}
	}
}

// svcSlot returns the slot of the named service, nil if the catalog has
// none.
func (s *Simulator) svcSlot(name string) *svcSlot {
	for i := range s.svcs {
		if s.svcs[i].svc.Name == name {
			return &s.svcs[i]
		}
	}
	return nil
}

// hostOf returns the slot of the instance's host, looking the name up
// only when the instance is new or has moved.
func (s *Simulator) hostOf(is *instSlot) *hostSlot {
	if is.host == nil || is.host.name != is.inst.Host {
		is.host = s.byName[is.inst.Host]
	}
	return is.host
}

// demandOf is the instance's demand this minute: 0 for an instance
// started since computeDemand.
func (s *Simulator) demandOf(inst *service.Instance) float64 {
	if is, ok := s.instOf[inst]; ok {
		return is.demand
	}
	return 0
}

// hostRaw returns the host's raw demand (may exceed 1) and memory load.
func (s *Simulator) hostRaw(h *hostSlot) (cpu, mem float64) {
	if !h.fresh {
		h.units, h.memUsed = 0, 0
		for _, inst := range s.dep.InstancesOn(h.name) {
			h.units += s.demandOf(inst)
			svc, _ := s.dep.Catalog().Get(inst.Service)
			h.memUsed += svc.MemoryMBPerInstance
		}
		h.settle()
	}
	return h.cpu, h.mem
}

// result folds the slots' accumulators into the run's result, making
// its per-host and per-service maps: they hold an entry where a minute
// would have written one.
func (s *Simulator) result() *Result {
	r := s.res
	r.HostLoad = make(map[string][]float64, len(s.byName))
	r.OverloadMinutes, r.MaxStreak = make(map[string]int), make(map[string]int)
	r.UserMinutes, r.DegradedUserMinutes = make(map[string]float64), make(map[string]float64)
	for name, h := range s.byName {
		if h.series != nil {
			r.HostLoad[name] = h.series
		}
		if h.overload > 0 {
			r.OverloadMinutes[name] = h.overload
		}
		if h.maxStreak > 0 {
			r.MaxStreak[name] = h.maxStreak
		}
	}
	for i := range s.svcs {
		sv := &s.svcs[i]
		if sv.userMinutes != 0 {
			r.UserMinutes[sv.svc.Name] = sv.userMinutes
		}
		if sv.degradedUserMinutes != 0 {
			r.DegradedUserMinutes[sv.svc.Name] = sv.degradedUserMinutes
		}
	}
	return r
}
