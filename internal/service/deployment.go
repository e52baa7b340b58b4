package service

import (
	"fmt"
	"slices"
	"strings"

	"autoglobe/internal/cluster"
)

// Instance is one running instance of a service on a host.
type Instance struct {
	// ID uniquely identifies the instance within the deployment.
	ID string
	// Service is the instance's service name.
	Service string
	// Host is the host currently executing the instance.
	Host string
	// Users is the number of users currently logged in at this instance
	// (interactive services) — the unit the simulation's load model and
	// the constrained-mobility user-fluctuation logic work in.
	Users float64
	// Priority is the scheduling priority, adjusted by the
	// increase/reduce-priority actions. 0 is the default priority.
	Priority int
}

// Deployment tracks the current service-to-server allocation and
// validates every transition against the services' declarative
// constraints. It is the control surface the AutoGlobe controller's
// actions operate on.
//
// The instance lists it returns are shared snapshots: read-only, and
// never edited afterwards — a mutation replaces the lists it stales. A
// Deployment is not safe for concurrent use.
type Deployment struct {
	cluster *cluster.Cluster
	catalog *Catalog

	instances map[string]*Instance
	nextID    int

	// The ID-sorted snapshots InstancesOn, InstancesOf and Instances
	// hand out, and every reader walks; all is rebuilt by the first
	// Instances after a Start or Stop (nil: stale).
	onHost    map[string][]*Instance
	ofService map[string][]*Instance
	all       []*Instance

	watchers []func(host string)
	state    HostState // HostState's gather buffer
}

// Watch registers an observer notified with a host name after every
// successful allocation mutation touching that host: Start and Stop
// report the instance's host, Move reports both the old and the new
// host. Observers run synchronously on the mutating goroutine and must
// not mutate the deployment re-entrantly; the placement feasibility
// index uses the hook to recompute one host column per mutation.
func (d *Deployment) Watch(fn func(host string)) {
	d.watchers = append(d.watchers, fn)
}

func (d *Deployment) notify(host string) {
	for _, fn := range d.watchers {
		fn(host)
	}
}

// NewDeployment returns an empty deployment over the given cluster and
// service catalog.
func NewDeployment(cl *cluster.Cluster, cat *Catalog) *Deployment {
	return &Deployment{
		cluster:   cl,
		catalog:   cat,
		instances: make(map[string]*Instance),
		onHost:    make(map[string][]*Instance),
		ofService: make(map[string][]*Instance),
	}
}

// Cluster returns the deployment's host pool.
func (d *Deployment) Cluster() *cluster.Cluster { return d.cluster }

// Catalog returns the deployment's service catalog.
func (d *Deployment) Catalog() *Catalog { return d.catalog }

// Shape is the part of a service description placement depends on.
// Services of equal shape fit the same hosts, up to the identity rule
// (a host runs at most one instance of a service).
type Shape struct {
	MinPerfIndex float64
	Exclusive    bool
	MemoryMB     int
}

// Shape returns the service's placement constraints.
func (s *Service) Shape() Shape {
	return Shape{s.MinPerfIndex, s.Exclusive, s.MemoryMBPerInstance}
}

// Refusal is why a placement is refused; the zero value, Fits: it is not.
type Refusal uint8

// The refusals, in the order the rules are checked.
const (
	Fits Refusal = iota
	UnknownService
	UnknownHost
	BelowMinPerfIndex
	ExclusiveNeedsEmptyHost
	HostRunsExclusive
	AlreadyRuns
	InsufficientMemory
)

// HostState is everything about one host the placement rules read,
// gathered once so any number of shapes can be checked against it.
type HostState struct {
	Pooled    bool
	PerfIndex float64
	MemoryMB  int
	MemUsedMB int
	// Exclusive names the resident exclusive service, if any.
	Exclusive string
	// Services names the residents' services, one per instance.
	Services []string
}

// HostState gathers the host's placement state into the deployment's
// one gather buffer: the result is valid until the next HostState or
// CanPlace call and, like a mutation, must not race with either.
func (d *Deployment) HostState(hostName string) *HostState {
	h, ok := d.cluster.Host(hostName)
	st := &d.state
	*st = HostState{Pooled: ok, PerfIndex: h.PerformanceIndex, MemoryMB: h.MemoryMB, Services: st.Services[:0]}
	for _, inst := range d.onHost[hostName] {
		svc := d.catalog.services[inst.Service]
		st.Services = append(st.Services, svc.Name)
		st.MemUsedMB += svc.MemoryMBPerInstance
		if svc.Exclusive {
			st.Exclusive = svc.Name
		}
	}
	return st
}

// Check is the placement verdict, the one statement of the constraint
// rules: the host is pooled and meets the minimum performance index,
// exclusivity holds in both directions, the host does not already run
// an instance of svcName, and its memory suffices. An empty svcName
// leaves out the identity rule — the verdict then holds for every
// service of the shape not yet running on the host.
func (st *HostState) Check(sh Shape, svcName string) Refusal {
	switch {
	case !st.Pooled:
		return UnknownHost
	case !(st.PerfIndex >= sh.MinPerfIndex):
		return BelowMinPerfIndex
	case sh.Exclusive && len(st.Services) > 0:
		return ExclusiveNeedsEmptyHost
	case st.Exclusive != "":
		return HostRunsExclusive
	case svcName != "" && slices.Contains(st.Services, svcName):
		return AlreadyRuns
	case st.MemUsedMB+sh.MemoryMB > st.MemoryMB:
		return InsufficientMemory
	}
	return Fits
}

// PlacementError explains why an instance cannot be placed on a host.
// It carries the refusal and its operands; the text is built only when
// somebody asks for it.
type PlacementError struct {
	Service string
	Host    string
	Reason  Refusal
	shape   Shape
	state   HostState // Services is not retained
}

func (e *PlacementError) Error() string {
	var why string
	switch e.Reason {
	case UnknownService:
		why = "unknown service"
	case UnknownHost:
		why = "unknown host"
	case BelowMinPerfIndex:
		why = fmt.Sprintf("performance index %g below required minimum %g", e.state.PerfIndex, e.shape.MinPerfIndex)
	case ExclusiveNeedsEmptyHost:
		why = "service is exclusive but host is not empty"
	case HostRunsExclusive:
		why = fmt.Sprintf("host runs exclusive service %q", e.state.Exclusive)
	case AlreadyRuns:
		why = "host already runs an instance of this service"
	case InsufficientMemory:
		why = fmt.Sprintf("insufficient memory: %d MB used + %d MB needed > %d MB",
			e.state.MemUsedMB, e.shape.MemoryMB, e.state.MemoryMB)
	}
	return fmt.Sprintf("service: cannot place %q on %q: %s", e.Service, e.Host, why)
}

// CanPlace checks whether an instance of the service could be started on
// the host under the current allocation: HostState.Check's verdict on
// the service's shape and name.
func (d *Deployment) CanPlace(svcName, hostName string) error {
	svc, ok := d.catalog.Get(svcName)
	if !ok {
		return &PlacementError{Service: svcName, Host: hostName, Reason: UnknownService}
	}
	st := d.HostState(hostName)
	if r := st.Check(svc.Shape(), svcName); r != Fits {
		e := &PlacementError{svcName, hostName, r, svc.Shape(), *st}
		e.state.Services = nil
		return e
	}
	return nil
}

// Start launches a new instance of the service on the host. It fails if
// the placement is invalid or the service already runs its maximum
// number of instances.
func (d *Deployment) Start(svcName, hostName string) (*Instance, error) {
	svc, ok := d.catalog.Get(svcName)
	if !ok {
		return nil, fmt.Errorf("service: unknown service %q", svcName)
	}
	if svc.MaxInstances > 0 && len(d.ofService[svcName]) >= svc.MaxInstances {
		return nil, fmt.Errorf("service: %q already runs its maximum of %d instances",
			svcName, svc.MaxInstances)
	}
	if err := d.CanPlace(svcName, hostName); err != nil {
		return nil, err
	}
	d.nextID++
	inst := &Instance{
		ID:      fmt.Sprintf("%s-%d", svcName, d.nextID),
		Service: svcName,
		Host:    hostName,
	}
	d.instances[inst.ID] = inst
	d.onHost[hostName] = with(d.onHost[hostName], inst)
	d.ofService[svcName] = with(d.ofService[svcName], inst)
	d.all = nil
	d.notify(hostName)
	return inst, nil
}

// NextID returns the instance ID the next successful Start of the
// service will assign. The distributed action dispatcher uses it to
// address the host agent that will run an instance *before* the model
// applies the start — the agent and the model must agree on the ID so
// later stop/move operations can name it. The preview is only valid
// until the next Start on this deployment.
func (d *Deployment) NextID(svcName string) string {
	return fmt.Sprintf("%s-%d", svcName, d.nextID+1)
}

// Stop terminates the instance. It fails if stopping would leave the
// service below its minimum instance count; pass force to override (used
// by the stop action that shuts a whole service down, and by failure
// injection).
func (d *Deployment) Stop(instID string, force bool) error {
	inst, ok := d.instances[instID]
	if !ok {
		return fmt.Errorf("service: unknown instance %q", instID)
	}
	svc, _ := d.catalog.Get(inst.Service)
	if !force && len(d.ofService[inst.Service]) <= svc.MinInstances {
		return fmt.Errorf("service: stopping %q would violate minimum of %d instances of %q",
			instID, svc.MinInstances, svc.Name)
	}
	delete(d.instances, instID)
	d.onHost[inst.Host] = without(d.onHost[inst.Host], inst)
	d.ofService[inst.Service] = without(d.ofService[inst.Service], inst)
	d.all = nil
	d.notify(inst.Host)
	return nil
}

// Move relocates the instance to another host, preserving its users and
// priority. The target must satisfy the same placement constraints as a
// fresh start.
func (d *Deployment) Move(instID, hostName string) error {
	inst, ok := d.instances[instID]
	if !ok {
		return fmt.Errorf("service: unknown instance %q", instID)
	}
	if inst.Host == hostName {
		return fmt.Errorf("service: instance %q already runs on %q", instID, hostName)
	}
	if err := d.CanPlace(inst.Service, hostName); err != nil {
		return err
	}
	from := inst.Host
	d.onHost[from] = without(d.onHost[from], inst)
	inst.Host = hostName
	d.onHost[hostName] = with(d.onHost[hostName], inst)
	d.notify(from)
	d.notify(hostName)
	return nil
}

// Instance returns the instance with the given ID.
func (d *Deployment) Instance(id string) (*Instance, bool) {
	inst, ok := d.instances[id]
	return inst, ok
}

// InstancesOf returns the instances of a service, sorted by ID. The
// slice is a shared snapshot: the caller must not modify it.
func (d *Deployment) InstancesOf(svcName string) []*Instance { return d.ofService[svcName] }

// InstancesOn returns the instances running on a host, sorted by ID. The
// slice is a shared snapshot: the caller must not modify it.
func (d *Deployment) InstancesOn(hostName string) []*Instance { return d.onHost[hostName] }

// Instances returns all instances, sorted by ID. The slice is a shared
// snapshot: the caller must not modify it.
func (d *Deployment) Instances() []*Instance {
	if d.all == nil && len(d.instances) > 0 {
		d.all = make([]*Instance, 0, len(d.instances))
		for _, inst := range d.instances {
			d.all = append(d.all, inst)
		}
		slices.SortFunc(d.all, func(a, b *Instance) int { return strings.Compare(a.ID, b.ID) })
	}
	return d.all
}

// with returns a copy of the ID-sorted list with inst inserted.
func with(list []*Instance, inst *Instance) []*Instance {
	i, _ := slices.BinarySearchFunc(list, inst.ID, instanceID)
	out := make([]*Instance, len(list)+1)
	copy(out, list[:i])
	out[i] = inst
	copy(out[i+1:], list[i:])
	return out
}

// without returns a copy of the ID-sorted list with inst left out.
func without(list []*Instance, inst *Instance) []*Instance {
	i, _ := slices.BinarySearchFunc(list, inst.ID, instanceID)
	out := make([]*Instance, len(list)-1)
	copy(out, list[:i])
	copy(out[i:], list[i+1:])
	return out
}

func instanceID(inst *Instance, id string) int { return strings.Compare(inst.ID, id) }

// AppendHostsOf appends the hosts running an instance of the service.
func (d *Deployment) AppendHostsOf(buf []string, svcName string) []string {
	for _, inst := range d.ofService[svcName] {
		buf = append(buf, inst.Host)
	}
	return buf
}

// CountOf returns the number of running instances of a service.
func (d *Deployment) CountOf(svcName string) int { return len(d.ofService[svcName]) }

// CountOn returns the number of instances running on a host.
func (d *Deployment) CountOn(hostName string) int { return len(d.onHost[hostName]) }

// UsersOf returns the total users across all instances of a service.
func (d *Deployment) UsersOf(svcName string) float64 {
	var sum float64
	for _, inst := range d.ofService[svcName] {
		sum += inst.Users
	}
	return sum
}

// Validate checks global allocation invariants: every service at or
// above its MinInstances, and ValidatePlacement. It is used by tests and
// by the simulator's self-checks.
func (d *Deployment) Validate() error {
	for _, name := range d.catalog.Names() {
		svc, _ := d.catalog.Get(name)
		if n := len(d.ofService[name]); n < svc.MinInstances {
			return fmt.Errorf("service: %q runs %d instances, below minimum %d", name, n, svc.MinInstances)
		}
	}
	return d.ValidatePlacement()
}

// ValidatePlacement checks the invariants that hold at every moment,
// faults in flight or not (MinInstances is transiently violable while a
// dead host's services await their restart): no service above its
// MaxInstances, and all placements individually legal under the
// constraint set — a pooled host, exclusivity, one instance of a service
// per host, MinPerfIndex, memory.
func (d *Deployment) ValidatePlacement() error {
	for _, name := range d.catalog.Names() {
		svc, _ := d.catalog.Get(name)
		if n := len(d.ofService[name]); svc.MaxInstances > 0 && n > svc.MaxInstances {
			return fmt.Errorf("service: %q runs %d instances, above maximum %d", name, n, svc.MaxInstances)
		}
	}
	for host, insts := range d.onHost {
		h, ok := d.cluster.Host(host)
		if !ok {
			if len(insts) > 0 {
				return fmt.Errorf("service: instances on unknown host %q", host)
			}
			continue
		}
		seen := make(map[string]bool)
		memUsed := 0
		for _, inst := range insts {
			svc, _ := d.catalog.Get(inst.Service)
			if svc.Exclusive && len(insts) > 1 {
				return fmt.Errorf("service: exclusive service %q shares host %q", svc.Name, host)
			}
			if !svc.CanRunOn(h) {
				return fmt.Errorf("service: %q on host %q violates minimum performance index %g",
					svc.Name, host, svc.MinPerfIndex)
			}
			if seen[inst.Service] {
				return fmt.Errorf("service: two instances of %q on host %q", inst.Service, host)
			}
			seen[inst.Service] = true
			memUsed += svc.MemoryMBPerInstance
		}
		if memUsed > h.MemoryMB {
			return fmt.Errorf("service: host %q memory oversubscribed: %d MB > %d MB", host, memUsed, h.MemoryMB)
		}
	}
	return nil
}
