// Package tsdb is AutoGlobe's disk-backed load archive: a segmented,
// append-only time-series store for per-entity load samples. The paper
// calls the load archive "a persistent aggregated view of historic load
// data"; internal/archive keeps the day profiles, and this package every
// raw sample underneath them — each entity's newest 64 in memory,
// the rest on disk: history that survives a coordinator crash and feeds
// the Section 7 load-prediction extension with weeks of pattern data. A
// store with no directory keeps them all in memory.
//
// # On-disk format
//
// A store directory holds two segment streams, each a journal.Segments —
// named, rotated, synced and read back the way the journal's own
// segments are:
//
//	dict-00000001.seg   entity-name records and retention cuts (never pruned)
//	min-00000003.seg    sample rows and sealed blocks
//
// Every record reuses internal/journal's CRC-32C frame (magic, length,
// checksum, payload), so a crash mid-append leaves a torn tail that the
// reader stops at cleanly — never a misparsed block. Record payloads:
//
//	dict:      [kDict]  [uvarint id] [uvarint len] [name bytes]
//	row:       [kRow]   [varint base] then cells to the end of the payload
//	           cell = [uvarint id] [varint minute − base] [f64 cpu LE] [f64 mem LE]
//	samples:   [kBlock] [0] [uvarint id] [uvarint count] [count × 24 B]
//	           sample = [i64 minute LE] [f64 cpu LE] [f64 mem LE]
//	cut:       [kMark]  [0] [uvarint minute]
//
// The 0 byte of a block or cut record is the tier byte of the format's
// older stores, written and checked as 0. Kind 3 was their hour and day
// aggregate, and is rejected like any other unknown kind.
//
// The minute stream is a sequence of commit batches, each
// [row frames][seal frames], written in one write or — when many
// entities seal in the same commit — in several, each at most
// rowFrameBytes plus one seal frame, with one fsync after the last (a
// write that rotates the segment fsyncs the one it closes). A row holds
// every sample appended since the previous batch, whatever its entity,
// in append order (a batch past rowFrameBytes is split over several
// rows); a seal is a kBlock of exactly BlockSamples samples, the
// steady-state storage unit and the only thing the read index points
// at. Replay fills each entity's open block from the rows and empties it
// at the entity's seal, so two orderings are load-bearing: a batch's
// rows come BEFORE its seals (the block's 64th sample is in a row in
// front of it), and between an entity's 64th cell and its 65th there is
// always its seal. A batch torn between its rows and its seals — by a
// crash mid-write or between two of its writes — therefore replays as a
// full open block with no frame behind it; the next commit seals it,
// and every read in between sees each sample once.
//
// Stores written before the row record hold kBlock records of fewer
// than BlockSamples samples ("tails", one per entity per commit, after
// that commit's seals). They are still read — a tail is a one-entity
// row — and never written.
//
// A cut record at minute m is the commit record of a retention cut
// (CompactBefore): every sample below m is gone. Replay keeps the
// highest cut of the dictionary stream, which is replayed before the
// minute stream and never pruned, and skips the minutes below it, which
// a minute segment that straddles the cut still holds. The cut is one
// frame, so a crash leaves it either durable or absent; minute segments
// wholly below it are deleted only after it is.
//
// Stores written before the cut moved to the dictionary stream also
// hold hr- and day- segments of aggregates, with their cut in the hr-
// stream. Neither is opened: such a store reopens with no cut, and the
// minutes below its old cut that a straddling segment still holds read
// again until the next cut removes them.
package tsdb

import (
	"encoding/binary"
	"errors"
	"math"
)

// Record kinds (first payload byte).
const (
	kDict  = 1
	kBlock = 2
	kMark  = 4
	kRow   = 5
)

// BlockSamples is the capacity of one sample block: the fixed-size
// on-disk unit and half the most an entity's raw tail holds.
const BlockSamples = 64

// sampleBytes is the fixed encoding size of one raw sample.
const sampleBytes = 8 + 8 + 8

// Sample is one raw measurement; archive.Sample is this type.
type Sample struct {
	Minute int     // absolute simulation minute
	CPU    float64 // CPU load in [0, 1] (may exceed 1 for raw demand)
	Mem    float64 // memory load in [0, 1]
}

// ErrBadRecord reports a structurally invalid record payload — a frame
// whose checksum held but whose contents do not parse. Distinct from
// journal.ErrTornTail: a torn tail is expected after a crash, a bad
// record is a bug or bit rot inside a valid frame.
var ErrBadRecord = errors.New("tsdb: malformed record payload")

// appendUvarint appends v as an unsigned varint.
func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// appendRowHeader opens a row payload whose cells carry minutes
// relative to base.
func appendRowHeader(dst []byte, base int) []byte {
	return binary.AppendVarint(append(dst, kRow), int64(base))
}

// appendRowCell appends one sample of entity id to an open row payload.
func appendRowCell(dst []byte, base int, id uint64, s Sample) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendVarint(dst, int64(s.Minute)-int64(base))
	dst = appendF64(dst, s.CPU)
	return appendF64(dst, s.Mem)
}

// decodeRow walks the cells of a row payload (kind byte included),
// calling fn for each until it returns an error. Rows come from a file:
// every varint and the 16 value bytes are bounds-checked, a minute that
// does not fit an int is rejected, and decodeRow never panics, whatever
// the input.
func decodeRow(p []byte, fn func(id uint64, s Sample) error) error {
	if len(p) == 0 || p[0] != kRow {
		return ErrBadRecord
	}
	base, n := binary.Varint(p[1:])
	if n <= 0 {
		return ErrBadRecord
	}
	for p = p[1+n:]; len(p) > 0; p = p[16:] { // the 16 value bytes end a cell
		id, n := binary.Uvarint(p)
		if n <= 0 {
			return ErrBadRecord
		}
		p = p[n:]
		delta, n := binary.Varint(p)
		minute := base + delta
		if n <= 0 || len(p)-n < 16 || (minute < base) != (delta < 0) || int64(int(minute)) != minute {
			return ErrBadRecord
		}
		p = p[n:]
		if err := fn(id, Sample{
			Minute: int(minute),
			CPU:    math.Float64frombits(binary.LittleEndian.Uint64(p)),
			Mem:    math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		}); err != nil {
			return err
		}
	}
	return nil
}

// appendDictRecord encodes a dictionary record.
func appendDictRecord(dst []byte, id uint64, name string) []byte {
	dst = append(dst, kDict)
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// appendBlockRecord encodes a sample block.
func appendBlockRecord(dst []byte, id uint64, samples []Sample) []byte {
	dst = append(dst, kBlock, 0)
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(samples)))
	for _, s := range samples {
		dst = appendI64(dst, int64(s.Minute))
		dst = appendF64(dst, s.CPU)
		dst = appendF64(dst, s.Mem)
	}
	return dst
}

// appendMarkRecord encodes a retention cut.
func appendMarkRecord(dst []byte, minute int) []byte {
	dst = append(dst, kMark, 0)
	return appendUvarint(dst, uint64(minute))
}

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// record is one decoded segment record. Exactly one of the payload
// fields is meaningful, selected by kind.
type record struct {
	kind    byte
	id      uint64
	name    string   // kDict
	samples []Sample // kBlock (aliases scratch — copy to retain)
	mark    int      // kMark
}

// maxBlockEntries bounds the declared entry count of a block record: a count field above the bound is corruption, not an
// instruction to allocate.
const maxBlockEntries = 1 << 16

// decodeRecord parses one record payload. The samples are decoded into
// (and alias) the provided scratch buffer, so a caller that retains them
// across calls must copy. decodeRecord never panics, whatever the input.
func decodeRecord(p []byte, sampleScratch []Sample) (record, error) {
	var r record
	if len(p) == 0 {
		return r, ErrBadRecord
	}
	r.kind = p[0]
	p = p[1:]
	switch r.kind {
	case kDict:
		id, n := binary.Uvarint(p)
		if n <= 0 {
			return r, ErrBadRecord
		}
		p = p[n:]
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p)-n) {
			return r, ErrBadRecord
		}
		p = p[n:]
		if uint64(len(p)) != l {
			return r, ErrBadRecord
		}
		r.id = id
		r.name = string(p)
		return r, nil
	case kBlock:
		id, count, rest, err := decodeBlockHeader(p)
		if err != nil {
			return r, err
		}
		if uint64(len(rest)) != count*sampleBytes {
			return r, ErrBadRecord
		}
		r.id = id
		r.samples = sampleScratch[:0]
		for i := uint64(0); i < count; i++ {
			off := i * sampleBytes
			r.samples = append(r.samples, Sample{
				Minute: int(int64(binary.LittleEndian.Uint64(rest[off:]))),
				CPU:    math.Float64frombits(binary.LittleEndian.Uint64(rest[off+8:])),
				Mem:    math.Float64frombits(binary.LittleEndian.Uint64(rest[off+16:])),
			})
		}
		return r, nil
	case kMark:
		if len(p) < 1 || p[0] != 0 {
			return r, ErrBadRecord
		}
		m, n := binary.Uvarint(p[1:])
		if n <= 0 || n != len(p)-1 {
			return r, ErrBadRecord
		}
		r.mark = int(m)
		return r, nil
	}
	return r, ErrBadRecord
}

// decodeBlockHeader parses the [0][uvarint id][uvarint count] header of
// a block record and returns the remaining bytes.
func decodeBlockHeader(p []byte) (uint64, uint64, []byte, error) {
	if len(p) < 1 || p[0] != 0 {
		return 0, 0, nil, ErrBadRecord
	}
	p = p[1:]
	id, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, ErrBadRecord
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxBlockEntries {
		return 0, 0, nil, ErrBadRecord
	}
	return id, count, p[n:], nil
}
