// Package cluster models the virtualized, pooled hardware landscape that
// AutoGlobe administers: hosts (blades and servers) with their static
// attributes, grouped into a cluster whose composition can change at
// runtime ("the processing power can easily be scaled to the respective
// demand by varying the number of blades on the fly").
//
// Hosts carry the attributes the paper's server-selection fuzzy
// controller consumes (Table 3): performance index, number of CPUs, CPU
// clock, CPU cache, memory, swap space and temporary disk space. Dynamic
// quantities (CPU and memory load) are owned by the monitoring pipeline,
// not by this package.
package cluster

import (
	"fmt"
	"sort"
)

// Host describes one physical server. All fields are static attributes;
// a Host is immutable once added to a Cluster.
type Host struct {
	// Name uniquely identifies the host within the cluster.
	Name string
	// Category groups hosts of the same hardware model (e.g. "FSC-BX300").
	// The controller console displays servers grouped by category.
	Category string
	// PerformanceIndex relates the performance of hosts to each other; a
	// standard single-processor blade has index 1. The paper's landscape
	// uses 1 (BX300), 2 (BX600) and 9 (BL40p).
	PerformanceIndex float64
	// CPUs is the number of processors.
	CPUs int
	// ClockMHz is the CPU clock speed in MHz.
	ClockMHz int
	// CacheKB is the CPU cache size in KB.
	CacheKB int
	// MemoryMB is the main memory size in MB.
	MemoryMB int
	// SwapMB is the available swap space in MB.
	SwapMB int
	// TempMB is the available temporary disk space in MB.
	TempMB int
}

// Validate checks the host description for consistency.
func (h Host) Validate() error {
	switch {
	case h.Name == "":
		return fmt.Errorf("cluster: host with empty name")
	case h.PerformanceIndex <= 0:
		return fmt.Errorf("cluster: host %q: performance index %g must be positive", h.Name, h.PerformanceIndex)
	case h.CPUs <= 0:
		return fmt.Errorf("cluster: host %q: %d CPUs", h.Name, h.CPUs)
	case h.MemoryMB <= 0:
		return fmt.Errorf("cluster: host %q: %d MB memory", h.Name, h.MemoryMB)
	case h.ClockMHz < 0 || h.CacheKB < 0 || h.SwapMB < 0 || h.TempMB < 0:
		return fmt.Errorf("cluster: host %q: negative resource attribute", h.Name)
	}
	return nil
}

// String renders the host as "name (category, PI=…)".
func (h Host) String() string {
	return fmt.Sprintf("%s (%s, PI=%g)", h.Name, h.Category, h.PerformanceIndex)
}

// Cluster is the pool of hosts available to the self-organizing
// infrastructure. The zero value is an empty, usable cluster.
type Cluster struct {
	hosts    map[string]Host
	order    []string
	watchers []func(h Host, added bool)
}

// Watch registers an observer notified after every successful pool
// mutation: Add reports the host with added=true, Remove with
// added=false. Watchers let derived structures (e.g. the placement
// feasibility index) stay incrementally consistent without the cluster
// knowing about them. Observers run synchronously on the mutating
// goroutine and must not mutate the cluster re-entrantly.
func (c *Cluster) Watch(fn func(h Host, added bool)) {
	c.watchers = append(c.watchers, fn)
}

func (c *Cluster) notify(h Host, added bool) {
	for _, fn := range c.watchers {
		fn(h, added)
	}
}

// New returns a cluster containing the given hosts.
func New(hosts ...Host) (*Cluster, error) {
	c := &Cluster{hosts: make(map[string]Host)}
	for _, h := range hosts {
		if err := c.Add(h); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustNew is New panicking on error, for landscape literals in tests and
// examples.
func MustNew(hosts ...Host) *Cluster {
	c, err := New(hosts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Add pools a new host (e.g. a freshly inserted blade).
func (c *Cluster) Add(h Host) error {
	if err := h.Validate(); err != nil {
		return err
	}
	if c.hosts == nil {
		c.hosts = make(map[string]Host)
	}
	if _, dup := c.hosts[h.Name]; dup {
		return fmt.Errorf("cluster: duplicate host %q", h.Name)
	}
	c.hosts[h.Name] = h
	c.order = append(c.order, h.Name)
	c.notify(h, true)
	return nil
}

// Remove unpools a host. It is the caller's responsibility to move or
// stop service instances first; Remove only manages pool membership.
func (c *Cluster) Remove(name string) error {
	h, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cluster: no host %q", name)
	}
	delete(c.hosts, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.notify(h, false)
	return nil
}

// Host returns the named host.
func (c *Cluster) Host(name string) (Host, bool) {
	h, ok := c.hosts[name]
	return h, ok
}

// Hosts returns all hosts in insertion order.
func (c *Cluster) Hosts() []Host {
	out := make([]Host, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.hosts[n])
	}
	return out
}

// Names returns all host names in insertion order.
func (c *Cluster) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Len returns the number of pooled hosts.
func (c *Cluster) Len() int { return len(c.hosts) }

// Categories returns the distinct host categories in lexicographic order.
func (c *Cluster) Categories() []string {
	set := make(map[string]bool)
	for _, h := range c.hosts {
		set[h.Category] = true
	}
	out := make([]string, 0, len(set))
	for cat := range set {
		out = append(out, cat)
	}
	sort.Strings(out)
	return out
}

// ByCategory returns the hosts of one category in insertion order.
func (c *Cluster) ByCategory(category string) []Host {
	var out []Host
	for _, n := range c.order {
		if h := c.hosts[n]; h.Category == category {
			out = append(out, h)
		}
	}
	return out
}
