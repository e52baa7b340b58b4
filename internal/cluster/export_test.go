package cluster

// Functions and methods only this package's tests call.

// TotalPerformance returns the sum of all performance indices — the
// cluster's aggregate capacity in "standard blade" units.
func (c *Cluster) TotalPerformance() float64 {
	var sum float64
	for _, h := range c.hosts {
		sum += h.PerformanceIndex
	}
	return sum
}
