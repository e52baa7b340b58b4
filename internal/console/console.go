// Package console renders the controller console of the paper's
// Figure 8 as text: a server view (all controlled servers grouped by
// category, with detail), a service view, and a message view listing
// administrative messages and notifications. The GUI's information
// surface is preserved; the rendering targets terminals instead of
// Swing.
package console

import (
	"cmp"
	"fmt"
	"strings"

	"autoglobe/internal/archive"
	"autoglobe/internal/controller"
	"autoglobe/internal/service"
)

// ServerView renders all controlled servers grouped by category, with
// their hardware attributes, current load and resident instances.
func ServerView(dep *service.Deployment, arch *archive.Archive) string {
	var sb strings.Builder
	sb.WriteString("SERVER VIEW\n")
	cl := dep.Cluster()
	for _, cat := range cl.Categories() {
		fmt.Fprintf(&sb, "category %s\n", cat)
		fmt.Fprintf(&sb, "  %-12s %4s %5s %7s %7s %5s %5s  %s\n",
			"server", "PI", "CPUs", "MHz", "mem MB", "cpu", "mem", "instances")
		for _, h := range cl.ByCategory(cat) {
			var cpu, mem float64
			if s, ok := arch.Latest(archive.HostEntity(h.Name)); ok {
				cpu, mem = s.CPU, s.Mem
			}
			var insts []string
			for _, inst := range dep.InstancesOn(h.Name) {
				insts = append(insts, inst.Service)
			}
			fmt.Fprintf(&sb, "  %-12s %4g %5d %7d %7d %4.0f%% %4.0f%%  %s\n",
				h.Name, h.PerformanceIndex, h.CPUs, h.ClockMHz, h.MemoryMB,
				cpu*100, mem*100, strings.Join(insts, ", "))
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// ServerDetail renders the lower right-hand panel of the paper's
// console: detailed information about one selected server — hardware
// attributes, current load, tail quantiles over the recent window, the
// aggregated day profile, and resident instances.
func ServerDetail(dep *service.Deployment, arch *archive.Archive, host string, nowMinute int) string {
	h, ok := dep.Cluster().Host(host)
	if !ok {
		return fmt.Sprintf("SERVER DETAIL: unknown server %q", host)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SERVER DETAIL %s\n", h)
	fmt.Fprintf(&sb, "  hardware: %d CPU × %d MHz, %d KB cache, %d MB memory, %d MB swap, %d MB temp\n",
		h.CPUs, h.ClockMHz, h.CacheKB, h.MemoryMB, h.SwapMB, h.TempMB)
	entity := archive.HostEntity(host)
	if s, ok := arch.Latest(entity); ok {
		fmt.Fprintf(&sb, "  load now: cpu %.0f%%, mem %.0f%%\n", s.CPU*100, s.Mem*100)
	}
	from := nowMinute - 24*60
	avg, ok, errAvg := arch.AverageCPU(entity, from, nowMinute)
	p95, _, err95 := arch.PercentileCPU(entity, from, nowMinute, 0.95)
	p99, _, err99 := arch.PercentileCPU(entity, from, nowMinute, 0.99)
	if err := cmp.Or(errAvg, err95, err99); err != nil {
		fmt.Fprintf(&sb, "  last 24 h: unreadable: %v\n", err)
	} else if ok {
		fmt.Fprintf(&sb, "  last 24 h: mean %.0f%%, p95 %.0f%%, p99 %.0f%%\n", avg*100, p95*100, p99*100)
	}
	profile := arch.DayProfile(entity)
	fmt.Fprintf(&sb, "  day profile: %s\n", loadSparkline(profile))
	insts := dep.InstancesOn(host)
	fmt.Fprintf(&sb, "  instances (%d):\n", len(insts))
	for _, inst := range insts {
		fmt.Fprintf(&sb, "    %-20s %-10s users %7.1f  priority %+d\n",
			inst.ID, inst.Service, inst.Users, inst.Priority)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// loadSparkline compresses a per-minute day profile into a 48-glyph
// text chart.
func loadSparkline(profile []float64) string {
	if len(profile) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	const buckets = 48
	per := len(profile) / buckets
	if per == 0 {
		per = 1
	}
	var sb strings.Builder
	for i := 0; i+per <= len(profile); i += per {
		var sum float64
		for _, v := range profile[i : i+per] {
			sum += v
		}
		idx := int(sum / float64(per) * float64(len(glyphs)))
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		if idx < 0 {
			idx = 0
		}
		sb.WriteRune(glyphs[idx])
	}
	return sb.String()
}

// ServiceView renders all controlled services with their instance
// placement, users and load.
func ServiceView(dep *service.Deployment, arch *archive.Archive) string {
	var sb strings.Builder
	sb.WriteString("SERVICE VIEW\n")
	fmt.Fprintf(&sb, "  %-8s %-16s %10s %9s %6s\n", "service", "type", "instances", "users", "load")
	for _, name := range dep.Catalog().Names() {
		svc, _ := dep.Catalog().Get(name)
		var load float64
		if s, ok := arch.Latest(archive.ServiceEntity(name)); ok {
			load = s.CPU
		}
		fmt.Fprintf(&sb, "  %-8s %-16s %10d %9.0f %5.0f%%\n",
			name, svc.Type, dep.CountOf(name), dep.UsersOf(name), load*100)
		for _, inst := range dep.InstancesOf(name) {
			fmt.Fprintf(&sb, "      %-20s on %-12s users %7.1f  priority %+d\n",
				inst.ID, inst.Host, inst.Users, inst.Priority)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// MessageView renders the most recent administrative messages and
// notifications (executed actions, alerts, pending confirmations).
func MessageView(events []controller.Event, limit int) string {
	var sb strings.Builder
	sb.WriteString("MESSAGE VIEW\n")
	start := 0
	if limit > 0 && len(events) > limit {
		start = len(events) - limit
		fmt.Fprintf(&sb, "  … %d earlier messages\n", start)
	}
	for _, e := range events[start:] {
		switch {
		case e.Executed:
			fmt.Fprintf(&sb, "  [%5d] executed: %s\n", e.Minute, e.Decision)
		case e.Decision != nil:
			fmt.Fprintf(&sb, "  [%5d] %s: %s\n", e.Minute, e.Decision, e.Note)
		default:
			fmt.Fprintf(&sb, "  [%5d] %s\n", e.Minute, e.Note)
		}
	}
	if len(events) == 0 {
		sb.WriteString("  (no messages)\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}
