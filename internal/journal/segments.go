package journal

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Segments is one append-only stream of numbered segment files,
// <prefix>-<%08d>.seg, in a directory: the journal's write-ahead log and
// every tier of the tsdb run on it, so this is the one place that
// decides how a durable segment is named, opened, rotated, synced and
// read back.
//
// Nothing is created at open. The first write after it starts a fresh
// segment (O_EXCL), so a torn tail left by a crashed writer is never
// appended to, and a write that would grow a non-empty segment past
// Options.SegmentBytes starts the next one. Unless Options.NoSync, a new
// segment's directory entry is fsynced as it is created: fsyncing a
// file does not make its name durable. Segments is not safe for
// concurrent use; its owner serializes calls.
type Segments struct {
	dir, prefix string
	opts        Options

	live   []segment // oldest first; while w != nil the last one is active
	w      *os.File  // the active segment, nil until the next write creates one
	next   uint64    // number of the next segment to create
	bytes  int64
	closed bool
}

// segment is one live segment file: its number, its size, and a handle
// — the writer of the active one, else a read handle opened by ReadAt.
type segment struct {
	seq  uint64
	size int64
	f    *os.File
}

// OpenSegments opens (creating dir if needed) the stream of prefix's
// segments in dir. It lists the segments present and opens none.
func OpenSegments(dir, prefix string, opts Options) (*Segments, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	live, err := list(dir, prefix+"-", segSuffix)
	if err != nil {
		return nil, err
	}
	s := &Segments{dir: dir, prefix: prefix, opts: opts.withDefaults(), live: live}
	for _, g := range live {
		s.bytes += g.size
		s.next = g.seq + 1
	}
	return s, nil
}

// list returns the files <prefix><%08d><suffix> in dir with their sizes,
// oldest first.
func list(dir, prefix, suffix string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		segs = append(segs, segment{seq: seq, size: info.Size()})
	}
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Compare(a.seq, b.seq) })
	return segs, nil
}

func (s *Segments) path(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%08d%s", s.prefix, seq, segSuffix))
}

// find returns the index of segment seq in s.live.
func (s *Segments) find(seq uint64) (int, error) {
	i, ok := slices.BinarySearchFunc(s.live, seq, func(g segment, seq uint64) int { return cmp.Compare(g.seq, seq) })
	if !ok {
		return 0, fmt.Errorf("journal: no segment %s", s.path(seq))
	}
	return i, nil
}

// Write appends b to the active segment in one write call — starting a
// fresh segment first when there is none or b would grow a non-empty one
// past SegmentBytes — and returns the segment and offset b landed at.
// After Close it fails with os.ErrClosed.
func (s *Segments) Write(b []byte) (seq uint64, off int64, err error) {
	if s.closed {
		return 0, 0, os.ErrClosed
	}
	last := len(s.live) - 1
	if s.w == nil || s.live[last].size > 0 && s.live[last].size+int64(len(b)) > int64(s.opts.SegmentBytes) {
		if err := s.create(); err != nil {
			return 0, 0, err
		}
	}
	g := &s.live[len(s.live)-1]
	seq, off = g.seq, g.size
	n, err := s.w.Write(b)
	g.size += int64(n)
	s.bytes += int64(n)
	return seq, off, err
}

// create closes the active segment and starts segment s.next.
func (s *Segments) create() error {
	if err := s.rotate(); err != nil {
		return err
	}
	f, err := os.OpenFile(s.path(s.next), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	s.live = append(s.live, segment{seq: s.next, f: f})
	s.w = f
	s.next++
	if s.opts.NoSync {
		return nil
	}
	return syncDir(s.dir)
}

// rotate closes the active segment: the next write starts a fresh one.
func (s *Segments) rotate() error {
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w, s.live[len(s.live)-1].f = nil, nil
	return err
}

// syncDir makes dir's entries durable — a created segment, a renamed
// snapshot — which fsyncing the files themselves does not.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Sync fsyncs the active segment, unless NoSync.
func (s *Segments) Sync() error {
	if s.opts.NoSync || s.w == nil {
		return nil
	}
	return s.w.Sync()
}

// ReadAt fills b from segment seq at offset off, where Write reported a
// frame landed.
func (s *Segments) ReadAt(seq uint64, off int64, b []byte) error {
	if s.closed {
		return os.ErrClosed
	}
	i, err := s.find(seq)
	if err != nil {
		return err
	}
	g := &s.live[i]
	if g.f == nil {
		if g.f, err = os.Open(s.path(seq)); err != nil {
			return err
		}
	}
	_, err = g.f.ReadAt(b, off)
	return err
}

// Remove deletes segment seq. Removing the active segment makes the next
// write start a fresh one.
func (s *Segments) Remove(seq uint64) error {
	i, err := s.find(seq)
	if err != nil {
		return err
	}
	if g := &s.live[i]; g.f != nil {
		if g.f == s.w {
			s.w = nil
		}
		g.f.Close() // the file goes next
		g.f = nil
	}
	if err := os.Remove(s.path(seq)); err != nil {
		return err
	}
	s.bytes -= s.live[i].size
	s.live = slices.Delete(s.live, i, i+1)
	return nil
}

// Bytes returns the bytes on disk across the live segments.
func (s *Segments) Bytes() int64 { return s.bytes }

// Close closes every handle. Later writes and reads fail with
// os.ErrClosed.
func (s *Segments) Close() (err error) {
	s.closed, s.w = true, nil
	for i := range s.live {
		if f := s.live[i].f; f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			s.live[i].f = nil
		}
	}
	return err
}

// Replay calls fn for every intact frame of the segments numbered from
// on, oldest first: its segment, offset and framed length, and its
// payload — valid during the call only, as each file is read into one
// reused buffer. The first bad frame ends its segment: the writer died
// mid-append and the partial record was never acknowledged. Later
// segments still replay, since appends after a reopen always go to a
// fresh segment. An error from fn stops the replay.
func (s *Segments) Replay(from uint64, fn func(seq uint64, off int64, n int, payload []byte) error) error {
	var buf []byte
	for _, g := range s.live {
		if g.seq < from {
			continue
		}
		path := s.path(g.seq)
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		buf = slices.Grow(buf[:0], int(g.size))[:g.size]
		_, err = f.ReadAt(buf, 0)
		f.Close()
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		for off := 0; ; {
			p, n, err := DecodeFrame(buf[off:])
			if err != nil {
				break
			}
			if err := fn(g.seq, int64(off), n, p); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			off += n
		}
	}
	return nil
}
