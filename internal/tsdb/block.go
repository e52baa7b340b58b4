// Package tsdb is AutoGlobe's disk-backed load archive: a segmented,
// append-only time-series store for per-entity load samples. The paper
// calls the load archive "a persistent aggregated view of historic load
// data"; internal/archive keeps the day profiles, and this package every
// raw sample underneath them — each entity's newest 64–128 in memory,
// the rest on disk: history that survives a coordinator crash and feeds
// the Section 7 load-prediction extension with weeks of pattern data. A
// store with no directory keeps them all in memory.
//
// # On-disk format
//
// A store directory holds per-tier segment files plus a dictionary, each
// stream a journal.Segments — named, rotated, synced and read back the
// way the journal's own segments are:
//
//	dict-00000001.seg   entity-name records (never pruned)
//	min-00000003.seg    minute-tier sample blocks
//	hr-00000002.seg     hour-tier aggregate blocks + compaction watermarks
//	day-00000001.seg    day-tier aggregate blocks + compaction watermarks
//
// Every record reuses internal/journal's CRC-32C frame (magic, length,
// checksum, payload), so a crash mid-append leaves a torn tail that the
// reader stops at cleanly — never a misparsed block. Record payloads:
//
//	dict:      [kDict]  [uvarint id] [uvarint len] [name bytes]
//	row:       [kRow]   [varint base] then cells to the end of the payload
//	           cell = [uvarint id] [varint minute − base] [f64 cpu LE] [f64 mem LE]
//	samples:   [kBlock] [tier] [uvarint id] [uvarint count] [count × 24 B]
//	           sample = [i64 minute LE] [f64 cpu LE] [f64 mem LE]
//	aggs:      [kAgg]   [tier] [uvarint id] [uvarint count] [count × 48 B]
//	           agg = [i64 start LE] [i64 n LE] [f64 sumCPU] [f64 sumMem] [f64 maxCPU] [f64 maxMem]
//	watermark: [kMark]  [tier] [uvarint minute]
//
// The minute stream is a sequence of commit batches, each
// [row frames][seal frames] in one write. A row holds every sample
// appended since the previous batch, whatever its entity, in append
// order (a batch past rowFrameBytes is split over several rows); a
// seal is a kBlock of exactly BlockSamples samples, the steady-state
// storage unit and the only thing the read index points at. Replay
// fills each entity's open block from the rows and empties it at the
// entity's seal, so two orderings are load-bearing: a batch's rows come
// BEFORE its seals (the block's 64th sample is in a row in front of
// it), and between an entity's 64th cell and its 65th there is always
// its seal. A batch torn between its rows and its seals therefore
// replays as a full open block with no frame behind it; the next commit
// seals it, and every read in between sees each sample once.
//
// Stores written before the row record hold kBlock records of fewer
// than BlockSamples samples ("tails", one per entity per commit, after
// that commit's seals). They are still read — a tail is a one-entity
// row — and never written.
//
// A watermark at tier t, minute m is the commit record of a compaction:
// it asserts that every tier-t datum with minute < m has been rolled up
// into tier t+1. Aggregates above the current watermark are orphans of
// a torn compaction and are ignored; data below it is served from the
// coarser tier. Because the watermark is the LAST frame of the
// compaction's append batch, prefix durability makes the roll-up
// atomic: either the watermark survives (and then so do all the
// aggregates before it) or the finer tier remains authoritative.
package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Tier is the downsampling level of a block.
type Tier uint8

// The three downsampling tiers. Minute holds raw samples; Hour and Day
// hold aggregates (sum, count, max) over their window.
const (
	TierMinute Tier = 0
	TierHour   Tier = 1
	TierDay    Tier = 2
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierMinute:
		return "minute"
	case TierHour:
		return "hour"
	case TierDay:
		return "day"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Window returns the tier's aggregation window in minutes.
func (t Tier) Window() int {
	switch t {
	case TierHour:
		return 60
	case TierDay:
		return 24 * 60
	}
	return 1
}

// Record kinds (first payload byte).
const (
	kDict  = 1
	kBlock = 2
	kAgg   = 3
	kMark  = 4
	kRow   = 5
)

// BlockSamples is the capacity of one sample block: the fixed-size
// on-disk unit and half the most an entity's raw tail holds.
const BlockSamples = 64

// sampleBytes is the fixed encoding size of one raw sample.
const sampleBytes = 8 + 8 + 8

// aggBytes is the fixed encoding size of one aggregate.
const aggBytes = 8 + 8 + 8 + 8 + 8 + 8

// Sample is one raw measurement; archive.Sample is this type.
type Sample struct {
	Minute int     // absolute simulation minute
	CPU    float64 // CPU load in [0, 1] (may exceed 1 for raw demand)
	Mem    float64 // memory load in [0, 1]
}

// Agg is one downsampled window: Start is the window's first minute
// (hour- or day-aligned), N the number of raw samples rolled up.
type Agg struct {
	Start  int
	N      int
	SumCPU float64
	SumMem float64
	MaxCPU float64
	MaxMem float64
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
func appendBlockRecord(dst []byte, tier Tier, id uint64, samples []Sample) []byte {
	dst = append(dst, kBlock, byte(tier))
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(samples)))
	for _, s := range samples {
		dst = appendI64(dst, int64(s.Minute))
		dst = appendF64(dst, s.CPU)
		dst = appendF64(dst, s.Mem)
	}
	return dst
}

// appendAggRecord encodes an aggregate block.
func appendAggRecord(dst []byte, tier Tier, id uint64, aggs []Agg) []byte {
	dst = append(dst, kAgg, byte(tier))
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(aggs)))
	for _, a := range aggs {
		dst = appendI64(dst, int64(a.Start))
		dst = appendI64(dst, int64(a.N))
		dst = appendF64(dst, a.SumCPU)
		dst = appendF64(dst, a.SumMem)
		dst = appendF64(dst, a.MaxCPU)
		dst = appendF64(dst, a.MaxMem)
	}
	return dst
}

// appendMarkRecord encodes a compaction watermark.
func appendMarkRecord(dst []byte, tier Tier, minute int) []byte {
	dst = append(dst, kMark, byte(tier))
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
	tier    Tier
	id      uint64
	name    string   // kDict
	samples []Sample // kBlock (aliases scratch — copy to retain)
	aggs    []Agg    // kAgg (aliases scratch — copy to retain)
	mark    int      // kMark
}

// maxBlockEntries bounds the declared entry count of a block or agg
// record: a count field above the bound is corruption, not an
// instruction to allocate.
const maxBlockEntries = 1 << 16

// decodeRecord parses one record payload. The samples/aggs slices are
// decoded into (and alias) the provided scratch buffers, so a caller
// that retains them across calls must copy. decodeRecord never panics,
// whatever the input.
func decodeRecord(p []byte, sampleScratch []Sample, aggScratch []Agg) (record, error) {
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
		tier, id, count, rest, err := decodeBlockHeader(p)
		if err != nil {
			return r, err
		}
		if uint64(len(rest)) != count*sampleBytes {
			return r, ErrBadRecord
		}
		r.tier, r.id = tier, id
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
	case kAgg:
		tier, id, count, rest, err := decodeBlockHeader(p)
		if err != nil {
			return r, err
		}
		if uint64(len(rest)) != count*aggBytes {
			return r, ErrBadRecord
		}
		r.tier, r.id = tier, id
		r.aggs = aggScratch[:0]
		for i := uint64(0); i < count; i++ {
			off := i * aggBytes
			r.aggs = append(r.aggs, Agg{
				Start:  int(int64(binary.LittleEndian.Uint64(rest[off:]))),
				N:      int(int64(binary.LittleEndian.Uint64(rest[off+8:]))),
				SumCPU: math.Float64frombits(binary.LittleEndian.Uint64(rest[off+16:])),
				SumMem: math.Float64frombits(binary.LittleEndian.Uint64(rest[off+24:])),
				MaxCPU: math.Float64frombits(binary.LittleEndian.Uint64(rest[off+32:])),
				MaxMem: math.Float64frombits(binary.LittleEndian.Uint64(rest[off+40:])),
			})
		}
		return r, nil
	case kMark:
		if len(p) < 1 {
			return r, ErrBadRecord
		}
		r.tier = Tier(p[0])
		if r.tier > TierDay {
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

// decodeBlockHeader parses the shared [tier][uvarint id][uvarint count]
// header of block and agg records and returns the remaining bytes.
func decodeBlockHeader(p []byte) (Tier, uint64, uint64, []byte, error) {
	if len(p) < 1 {
		return 0, 0, 0, nil, ErrBadRecord
	}
	tier := Tier(p[0])
	if tier > TierDay {
		return 0, 0, 0, nil, ErrBadRecord
	}
	p = p[1:]
	id, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, 0, nil, ErrBadRecord
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxBlockEntries {
		return 0, 0, 0, nil, ErrBadRecord
	}
	return tier, id, count, p[n:], nil
}
