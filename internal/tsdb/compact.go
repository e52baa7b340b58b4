package tsdb

import (
	"slices"

	"autoglobe/internal/journal"
)

// cutAlign is the granularity of a retention cut: CompactBefore aligns
// its minute down to a whole hour, so the store keeps up to an hour more
// than asked.
const cutAlign = 60

// CompactBefore is the retention cut: it drops every sample below
// minute, aligned down to the hour. It writes one cut record to the
// dictionary stream and, once that is durable, removes the index
// entries of sealed blocks that end below the cut and deletes the minute
// segments wholly below it; a straddling segment is kept and its dead
// prefix is never read again. A cut that does not move is a no-op. A
// failed write leaves the store as it was, and refusing writes (see
// Commit).
//
// The caller picks the minute — the archive cuts behind its retention
// window, so raw per-minute history (and with it the per-minute-of-day
// profile resolution) is kept for the full retention period.
func (st *Store) CompactBefore(minute int) error {
	if err := st.writable(); err != nil {
		return err
	}
	cut := (minute / cutAlign) * cutAlign
	if cut <= st.cut {
		return nil
	}
	st.recBuf = appendMarkRecord(st.recBuf[:0], cut)
	st.dictPending = journal.AppendFrame(st.dictPending, st.recBuf)
	if err := st.writeDict(); err != nil {
		return err
	}
	st.cut = cut
	for _, e := range st.ents {
		e.blocks = slices.DeleteFunc(e.blocks, func(r blockRef) bool { return r.end < cut })
	}
	if err := st.pruneMinuteSegments(cut); err != nil {
		return err
	}
	st.m.compacted(st.diskBytes())
	return nil
}

// pruneMinuteSegments deletes the minute segments whose every sample is
// below the cut, the active one included: the next commit starts a
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
		if err := st.segs[minuteTier].Remove(seq); err != nil {
			return err
		}
		delete(st.segMax, seq)
	}
	return nil
}
