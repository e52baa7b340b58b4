package tsdb

import (
	"slices"

	"autoglobe/internal/journal"
)

// CompactBefore rolls minute-tier samples older than minute into hour
// aggregates and hour aggregates older than minute into day aggregates,
// each roll-up committed by a watermark record at the end of its batch
// (torn compactions leave orphan aggregates that replay drops and the
// next compaction rewrites). Minute segments wholly below the new
// watermark are deleted; the tiny hour and day streams are kept whole
// so their watermark history survives. Horizons are aligned down to
// whole windows, so a roll-up never splits an hour or a day. Each
// roll-up stages its aggregates — staged[ends[i-1]:ends[i]] belong to
// st.ents[i] — and applies them only once its batch is written: a failed
// write leaves every tier as it was, and no read counts a minute twice.
//
// The caller picks the horizon — the archive compacts behind its
// retention window, so raw per-minute history (and with it the
// per-minute-of-day profile resolution) is preserved for the full
// retention period and only older data is downsampled.
func (st *Store) CompactBefore(minute int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.writable(); err != nil {
		return err
	}
	if err := st.compactMinutes(minute); err != nil {
		return err
	}
	return st.compactHours(minute)
}

func (st *Store) compactMinutes(before int) error {
	eff := (before / TierHour.Window()) * TierHour.Window()
	if eff <= st.marks[TierMinute] {
		return nil
	}
	var batch []byte
	var staged []Agg
	ends := make([]int, len(st.ents))
	for i, e := range st.ents {
		st.aggScratch = st.aggScratch[:0]
		err := st.forEachMinute(e, st.marks[TierMinute], eff, func(s Sample) {
			st.aggScratch = foldWindow(st.aggScratch, TierHour, s.Minute, s.CPU, s.Mem, 1)
		})
		if err != nil {
			return err
		}
		if len(st.aggScratch) > 0 {
			st.recBuf = appendAggRecord(st.recBuf[:0], TierHour, e.id, st.aggScratch)
			batch = journal.AppendFrame(batch, st.recBuf)
			staged = append(staged, st.aggScratch...)
		}
		ends[i] = len(staged)
	}
	st.recBuf = appendMarkRecord(st.recBuf[:0], TierMinute, eff)
	batch = journal.AppendFrame(batch, st.recBuf)
	if _, _, err := st.writeTier(int(TierHour), batch); err != nil {
		return err
	}
	// The watermark is durable; the minute tier below it is dead.
	st.marks[TierMinute] = eff
	lo := 0
	for i, e := range st.ents {
		e.hours, lo = append(e.hours, staged[lo:ends[i]]...), ends[i]
		e.blocks = slices.DeleteFunc(e.blocks, func(r blockRef) bool {
			return r.end < eff
		})
	}
	if err := st.pruneMinuteSegments(eff); err != nil {
		return err
	}
	st.m.compacted(int(TierHour), len(staged), st.diskBytes())
	return nil
}

func (st *Store) compactHours(before int) error {
	// Hour aggregates only exist below the minute→hour watermark; a day
	// can roll up once it is entirely in the hour tier.
	eff := (before / TierDay.Window()) * TierDay.Window()
	if limit := (st.marks[TierMinute] / TierDay.Window()) * TierDay.Window(); eff > limit {
		eff = limit
	}
	if eff <= st.marks[TierHour] {
		return nil
	}
	var batch []byte
	var staged []Agg
	ends := make([]int, len(st.ents))
	for i, e := range st.ents {
		st.aggScratch = st.aggScratch[:0]
		for _, a := range e.hours {
			if a.Start >= eff {
				break
			}
			st.aggScratch = foldWindow(st.aggScratch, TierDay, a.Start, a.SumCPU, a.SumMem, a.N)
			last := &st.aggScratch[len(st.aggScratch)-1]
			if a.MaxCPU > last.MaxCPU {
				last.MaxCPU = a.MaxCPU
			}
			if a.MaxMem > last.MaxMem {
				last.MaxMem = a.MaxMem
			}
		}
		if len(st.aggScratch) > 0 {
			st.recBuf = appendAggRecord(st.recBuf[:0], TierDay, e.id, st.aggScratch)
			batch = journal.AppendFrame(batch, st.recBuf)
			staged = append(staged, st.aggScratch...)
		}
		ends[i] = len(staged)
	}
	st.recBuf = appendMarkRecord(st.recBuf[:0], TierHour, eff)
	batch = journal.AppendFrame(batch, st.recBuf)
	if _, _, err := st.writeTier(int(TierDay), batch); err != nil {
		return err
	}
	st.marks[TierHour] = eff
	lo := 0
	for i, e := range st.ents {
		e.days, lo = append(e.days, staged[lo:ends[i]]...), ends[i]
		e.hours = slices.DeleteFunc(e.hours, func(a Agg) bool { return a.Start < eff })
	}
	st.m.compacted(int(TierDay), len(staged), st.diskBytes())
	return nil
}

// foldWindow accumulates one source datum (a raw sample contributes
// sums with n=1 and its values as maxima; an aggregate contributes its
// sums, count and maxima) into the trailing window aggregate of dst,
// opening a new window when the datum crosses a boundary. Source data
// arrives chronologically, so windows are emitted in order.
func foldWindow(dst []Agg, tier Tier, minute int, sumCPU, sumMem float64, n int) []Agg {
	start := (minute / tier.Window()) * tier.Window()
	if len(dst) == 0 || dst[len(dst)-1].Start != start {
		dst = append(dst, Agg{Start: start})
	}
	a := &dst[len(dst)-1]
	a.N += n
	a.SumCPU += sumCPU
	a.SumMem += sumMem
	if n == 1 {
		if sumCPU > a.MaxCPU {
			a.MaxCPU = sumCPU
		}
		if sumMem > a.MaxMem {
			a.MaxMem = sumMem
		}
	}
	return dst
}

// pruneMinuteSegments deletes the minute segments whose every sample is
// below the watermark, the active one included: the next commit starts a
// fresh one. Straddling segments are kept and their dead prefix is
// simply never read again. A memory store has no segments.
func (st *Store) pruneMinuteSegments(wm int) error {
	if st.dir == "" {
		return nil
	}
	for seq, newest := range st.segMax {
		if newest >= wm {
			continue
		}
		if err := st.segs[TierMinute].Remove(seq); err != nil {
			return err
		}
		delete(st.segMax, seq)
	}
	return nil
}
