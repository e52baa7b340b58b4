package main

import (
	"context"
	"math"
	"strings"

	"autoglobe/internal/agent"
	"autoglobe/internal/archive"
	"autoglobe/internal/service"
	loadmodel "autoglobe/internal/workload"
)

// svcLoad is the static load-model view of one catalog service.
type svcLoad struct {
	name    string
	typ     service.Type
	perUnit float64
	base    float64
	weight  float64
	memMB   int
	cell    int
	sub     int // subsystem accumulator index: cell*3 + {ERP, CRM, BW}
	kind    int // profile table index (application servers only)
	key     string
	// sum and n accumulate the service's instance loads of one minute
	// (archive pre-seeding only).
	sum float64
	n   int
}

// instLoad is one resident instance with this minute's load.
type instLoad struct {
	inst *service.Instance
	svc  *svcLoad
	// load is the instance's demand in performance-index units while
	// compute runs, and the fraction of its host it demands afterwards.
	load float64
}

// hostLoad is one host with its resident instances and this minute's
// report.
type hostLoad struct {
	name  string
	key   string
	pi    float64
	memMB float64
	insts []instLoad
	dirty bool
	cpu   float64
	mem   float64
}

// loadgen is the harness's load model: the formulae of the simulator's
// computeDemand (application servers from active users, databases and
// central instances mirroring their subsystem's request stream) without
// session churn or failure injection. It is closed-loop with the model
// the executor mutates — instance placement and Users are re-read every
// minute, so a scale-out really lowers the load the next heartbeats
// report — but the program itself only ever sees those heartbeats.
//
// The deployment is watched rather than re-enumerated: a mutation marks
// its hosts dirty and only those re-read their instance list, so the
// generator stays a small fraction of the minute it feeds (reported as
// loadgen.ms_per_minute, and excluded from every latency sample).
type loadgen struct {
	dep    *service.Deployment
	hosts  []hostLoad
	hostIx map[string]int
	svcs   map[string]*svcLoad
	order  []*svcLoad // catalog order
	tables [][]float64
	shift  []int
	jitter loadmodel.Jitter
	cost   loadmodel.CostModel
	subDB  []float64
	subCI  []float64
	// instances is how many instances the last computed minute reported.
	instances int
}

var subsystems = []string{"ERP", "CRM", "BW"}

func newLoadgen(ls *landscape, seed uint64) *loadgen {
	dep := ls.dep
	g := &loadgen{
		dep:    dep,
		hostIx: make(map[string]int, dep.Cluster().Len()),
		svcs:   make(map[string]*svcLoad, dep.Catalog().Len()),
		shift:  ls.shift,
		jitter: loadmodel.Jitter{Seed: seed, Amplitude: 0.03},
		cost:   loadmodel.DefaultCostModel(),
		subDB:  make([]float64, 3*len(ls.shift)),
		subCI:  make([]float64, 3*len(ls.shift)),
	}
	kinds := service.AppServerNames()
	profiles := loadmodel.PaperProfiles(loadmodel.DefaultPeakActivity)
	for _, k := range kinds {
		t := make([]float64, loadmodel.MinutesPerDay)
		for m := range t {
			t[m] = profiles[k].At(m)
		}
		g.tables = append(g.tables, t)
	}
	for _, s := range dep.Catalog().All() {
		cell := ls.cellOf[s.Name]
		sl := &svcLoad{
			name: s.Name, typ: s.Type, perUnit: float64(s.UsersPerUnit),
			base: s.BaseLoad, weight: s.RequestWeight, memMB: s.MemoryMBPerInstance,
			cell: cell, kind: -1, key: archive.ServiceEntity(s.Name),
		}
		for i, sub := range subsystems {
			if strings.HasSuffix(s.Subsystem, "-"+sub) {
				sl.sub = cell*3 + i
			}
		}
		for i, k := range kinds {
			if strings.HasSuffix(s.Name, "-"+k) && (s.Type == service.TypeInteractive || s.Type == service.TypeBatch) {
				sl.kind = i
			}
		}
		g.svcs[s.Name] = sl
		g.order = append(g.order, sl)
	}
	for i, h := range dep.Cluster().Hosts() {
		g.hostIx[h.Name] = i
		g.hosts = append(g.hosts, hostLoad{
			name: h.Name, key: archive.HostEntity(h.Name),
			pi: h.PerformanceIndex, memMB: float64(h.MemoryMB), dirty: true,
		})
	}
	dep.Watch(func(host string) {
		if i, ok := g.hostIx[host]; ok {
			g.hosts[i].dirty = true
		}
	})
	return g
}

// compute fills every host's report for the minute.
func (g *loadgen) compute(minute int) {
	clear(g.subDB)
	clear(g.subCI)
	for i := range g.hosts {
		h := &g.hosts[i]
		if h.dirty {
			h.insts = h.insts[:0]
			for _, inst := range g.dep.InstancesOn(h.name) {
				h.insts = append(h.insts, instLoad{inst: inst, svc: g.svcs[inst.Service]})
			}
			h.dirty = false
		}
		for j := range h.insts {
			il := &h.insts[j]
			s := il.svc
			if s.kind < 0 {
				continue
			}
			m := ((minute-g.shift[s.cell])%loadmodel.MinutesPerDay + loadmodel.MinutesPerDay) % loadmodel.MinutesPerDay
			active := il.inst.Users * g.tables[s.kind][m] * g.jitter.Factor(il.inst.ID, minute)
			units := active / s.perUnit
			il.load = units + s.base
			g.subDB[s.sub] += units * s.weight
			g.subCI[s.sub] += units
		}
	}
	g.instances = 0
	for i := range g.hosts {
		h := &g.hosts[i]
		g.instances += len(h.insts)
		var units, mem float64
		for j := range h.insts {
			il := &h.insts[j]
			s := il.svc
			switch s.typ {
			case service.TypeDatabase:
				il.load = g.subDB[s.sub]*g.cost.DBShare/float64(g.dep.CountOf(s.name)) + s.base
			case service.TypeCentralInstance:
				il.load = g.subCI[s.sub]*g.cost.CIShare/float64(g.dep.CountOf(s.name)) + s.base
			}
			units += il.load
			mem += float64(s.memMB)
			il.load = math.Min(1, il.load/h.pi)
		}
		h.cpu = math.Min(1, units/h.pi)
		h.mem = mem / h.memMB
	}
}

// report delivers the computed minute through every host's reporter, in
// cluster order, and returns how many sends failed.
func (g *loadgen) report(ctx context.Context, reps []*agent.HeartbeatReporter, minute int) (failed int) {
	for i := range g.hosts {
		h := &g.hosts[i]
		rep := reps[i]
		rep.Begin(minute, h.cpu, h.mem)
		for j := range h.insts {
			il := &h.insts[j]
			rep.Sample(il.inst.ID, il.inst.Service, il.load)
		}
		if rep.Send(ctx) != nil {
			failed++
		}
	}
	return failed
}

// seedArchive records the model's host and service loads for minutes
// [from, to) straight into the archive — the synthetic prior day the
// forecaster's day profiles are built from. The allocation is not
// touched, so the recorded day is the one the initial landscape would
// have lived through without a controller. The store is committed once an
// hour rather than once a minute: the day is history, not the minute loop
// under test, and 1,440 small writes are what the sandbox's disk is worst
// at.
func (g *loadgen) seedArchive(arch *archive.Archive, from, to int) error {
	for m := from; m < to; m++ {
		g.compute(m)
		for _, s := range g.order {
			s.sum, s.n = 0, 0
		}
		for i := range g.hosts {
			h := &g.hosts[i]
			if err := arch.Record(h.key, archive.Sample{Minute: m, CPU: h.cpu, Mem: h.mem}); err != nil {
				return err
			}
			for j := range h.insts {
				h.insts[j].svc.sum += h.insts[j].load
				h.insts[j].svc.n++
			}
		}
		for _, s := range g.order {
			if s.n == 0 {
				continue
			}
			if err := arch.Record(s.key, archive.Sample{Minute: m, CPU: s.sum / float64(s.n)}); err != nil {
				return err
			}
		}
		if m%60 == 59 || m == to-1 {
			if err := arch.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}
