package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
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
// whole windows, so a roll-up never splits an hour or a day.
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
	aggCount := 0
	for _, e := range st.ents {
		st.aggScratch = st.aggScratch[:0]
		err := st.forEachMinuteLocked(e, st.marks[TierMinute], eff, func(s Sample) {
			st.aggScratch = foldWindow(st.aggScratch, TierHour, s.Minute, s.CPU, s.Mem, 1)
		})
		if err != nil {
			return err
		}
		if len(st.aggScratch) == 0 {
			continue
		}
		st.recBuf = appendAggRecord(st.recBuf[:0], TierHour, e.id, st.aggScratch)
		batch = journal.AppendFrame(batch, st.recBuf)
		e.hours = append(e.hours, st.aggScratch...)
		aggCount += len(st.aggScratch)
	}
	st.recBuf = appendMarkRecord(st.recBuf[:0], TierMinute, eff)
	batch = journal.AppendFrame(batch, st.recBuf)
	if err := st.writeTier(int(TierHour), batch); err != nil {
		return err
	}
	// The watermark is durable; the minute tier below it is dead.
	st.marks[TierMinute] = eff
	for _, e := range st.ents {
		e.blocks = slices.DeleteFunc(e.blocks, func(r blockRef) bool {
			return r.end < eff
		})
	}
	if err := st.pruneMinuteSegments(eff); err != nil {
		return err
	}
	st.m.compacted(int(TierHour), aggCount, st.diskBytes)
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
	aggCount := 0
	for _, e := range st.ents {
		st.aggScratch = st.aggScratch[:0]
		cut := 0
		for _, a := range e.hours {
			if a.Start >= eff {
				break
			}
			cut++
			st.aggScratch = foldWindow(st.aggScratch, TierDay, a.Start, a.SumCPU, a.SumMem, a.N)
			last := &st.aggScratch[len(st.aggScratch)-1]
			if a.MaxCPU > last.MaxCPU {
				last.MaxCPU = a.MaxCPU
			}
			if a.MaxMem > last.MaxMem {
				last.MaxMem = a.MaxMem
			}
		}
		if cut == 0 {
			continue
		}
		st.recBuf = appendAggRecord(st.recBuf[:0], TierDay, e.id, st.aggScratch)
		batch = journal.AppendFrame(batch, st.recBuf)
		e.days = append(e.days, st.aggScratch...)
		e.hours = slices.Delete(e.hours, 0, cut)
		aggCount += len(st.aggScratch)
	}
	st.recBuf = appendMarkRecord(st.recBuf[:0], TierHour, eff)
	batch = journal.AppendFrame(batch, st.recBuf)
	if err := st.writeTier(int(TierDay), batch); err != nil {
		return err
	}
	st.marks[TierHour] = eff
	st.m.compacted(int(TierDay), aggCount, st.diskBytes)
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

// pruneMinuteSegments deletes minute segments whose every sample is
// below the watermark. The active segment is kept (it is still being
// written); straddling segments are kept and their dead prefix is
// simply never read again.
func (st *Store) pruneMinuteSegments(wm int) error {
	seqs := make([]int, 0, len(st.segMax))
	for seq := range st.segMax {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		if st.segMax[seq] >= wm {
			continue
		}
		if st.active[TierMinute] != nil && seq == st.actSeq[TierMinute] {
			continue
		}
		if f := st.files[seq]; f != nil {
			if err := f.Close(); err != nil {
				return err
			}
			delete(st.files, seq)
		}
		name := fmt.Sprintf("%s-%08d.seg", tierPrefix[TierMinute], seq)
		if err := os.Remove(filepath.Join(st.dir, name)); err != nil {
			return err
		}
		st.diskBytes -= st.segSize[seq]
		delete(st.segMax, seq)
		delete(st.segSize, seq)
		st.cacheDropSeq(seq)
		st.m.pruned(st.diskBytes)
	}
	return nil
}
