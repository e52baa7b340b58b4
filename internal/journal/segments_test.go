package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openSegs(t *testing.T, dir string, segmentBytes int) *Segments {
	t.Helper()
	s, err := OpenSegments(dir, "t", Options{NoSync: true, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// write writes b and returns where it landed.
func write(t *testing.T, s *Segments, b []byte) (uint64, int64) {
	t.Helper()
	seq, off, err := s.Write(b)
	if err != nil {
		t.Fatal(err)
	}
	return seq, off
}

// replayed returns every payload Replay yields from segment 0 on.
func replayed(t *testing.T, s *Segments) (payloads []string) {
	t.Helper()
	err := s.Replay(0, func(_ uint64, _ int64, _ int, p []byte) error {
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads
}

// TestSegmentsReopenWritesFresh: a crash leaves a torn frame at the end
// of the last segment. The first write after a reopen starts a fresh
// segment instead of appending behind the tear, so both the records
// before the tear and the new one replay, and the torn file is left as
// the crash left it.
func TestSegmentsReopenWritesFresh(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, 0)
	seq, _ := write(t, s, AppendFrame(nil, []byte("a")))
	write(t, s, AppendFrame(nil, []byte("b")))
	s.Close()
	torn := filepath.Join(dir, "t-00000000.seg")
	f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(AppendFrame(nil, []byte("torn"))[:7])
	f.Close()
	fi, _ := os.Stat(torn)

	re := openSegs(t, dir, 0)
	if got, off := write(t, re, AppendFrame(nil, []byte("c"))); got != seq+1 || off != 0 {
		t.Fatalf("write after reopen landed at (%d, %d), want (%d, 0)", got, off, seq+1)
	}
	if after, _ := os.Stat(torn); after.Size() != fi.Size() {
		t.Fatalf("torn segment grew from %d to %d bytes", fi.Size(), after.Size())
	}
	if got := replayed(t, re); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("replayed %q, want [a b c]", got)
	}
}

// TestSegmentsReadAtWhereWritten: every frame reads back at the (seq,
// off) its Write reported, across rotations and after a reopen.
func TestSegmentsReadAtWhereWritten(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, 64)
	type at struct {
		seq   uint64
		off   int64
		frame []byte
	}
	var wrote []at
	for i := 0; i < 20; i++ {
		frame := AppendFrame(nil, rec(i))
		seq, off := write(t, s, frame)
		wrote = append(wrote, at{seq, off, frame})
	}
	if wrote[len(wrote)-1].seq == 0 {
		t.Fatal("20 frames into 64-byte segments did not rotate")
	}
	check := func(name string, s *Segments) {
		for i, w := range wrote {
			b := make([]byte, len(w.frame))
			if err := s.ReadAt(w.seq, w.off, b); err != nil {
				t.Fatalf("%s: frame %d at (%d, %d): %v", name, i, w.seq, w.off, err)
			}
			if !bytes.Equal(b, w.frame) {
				t.Fatalf("%s: frame %d at (%d, %d) reads %q, want %q", name, i, w.seq, w.off, b, w.frame)
			}
		}
	}
	check("live", s)
	s.Close()
	check("reopened", openSegs(t, dir, 64))
}

// TestSegmentsRotateWouldGrowPast: a write rotates exactly when it would
// grow a non-empty segment past SegmentBytes — filling one to the byte
// does not rotate, and an oversized write into an empty segment stays.
func TestSegmentsRotateWouldGrowPast(t *testing.T) {
	s := openSegs(t, t.TempDir(), 100)
	for i, c := range []struct {
		n   int
		seq uint64
		off int64
		why string
	}{
		{60, 0, 0, "first write: a fresh segment"},
		{40, 0, 60, "fills the segment to exactly SegmentBytes"},
		{1, 1, 0, "would grow past: rotate"},
		{150, 2, 0, "oversized, segment non-empty: rotate"},
		{1, 3, 0, "behind an oversized write: rotate"},
	} {
		if seq, off := write(t, s, make([]byte, c.n)); seq != c.seq || off != c.off {
			t.Fatalf("write %d (%s) landed at (%d, %d), want (%d, %d)", i, c.why, seq, off, c.seq, c.off)
		}
	}
	s2 := openSegs(t, t.TempDir(), 100)
	if seq, _ := write(t, s2, make([]byte, 150)); seq != 0 {
		t.Fatalf("oversized first write went to segment %d, want 0", seq)
	}
	if seq, _ := write(t, s2, make([]byte, 1)); seq != 1 {
		t.Fatalf("write behind an oversized one went to segment %d, want 1", seq)
	}
}

// TestSegmentsRemoveActive: removing the segment being written deletes
// its file, and the next write starts a fresh segment.
func TestSegmentsRemoveActive(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, 0)
	seq, _ := write(t, s, AppendFrame(nil, []byte("old")))
	if err := s.Remove(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.path(seq)); !os.IsNotExist(err) {
		t.Fatalf("removed segment still on disk: %v", err)
	}
	if next, off := write(t, s, AppendFrame(nil, []byte("new"))); next != seq+1 || off != 0 {
		t.Fatalf("write after removing the active segment landed at (%d, %d), want (%d, 0)", next, off, seq+1)
	}
	if got := replayed(t, s); len(got) != 1 || got[0] != "new" {
		t.Fatalf("replayed %q, want [new]", got)
	}
	if err := s.Remove(seq); err == nil {
		t.Fatal("removing a segment twice succeeded")
	}
	s.Close()
	if _, _, err := s.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("write after Close: %v, want os.ErrClosed", err)
	}
}

// TestSegmentsBytes: Bytes is the size of the live segments on disk
// across writes, rotations, removes and a reopen.
func TestSegmentsBytes(t *testing.T) {
	dir := t.TempDir()
	s := openSegs(t, dir, 64)
	onDisk := func() (n int64) {
		segs, err := list(dir, "t-", segSuffix)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range segs {
			n += g.size
		}
		return n
	}
	var want int64
	for i := 0; i < 12; i++ {
		frame := AppendFrame(nil, rec(i))
		write(t, s, frame)
		want += int64(len(frame))
	}
	if s.Bytes() != want || onDisk() != want {
		t.Fatalf("after writes: Bytes %d, on disk %d, want %d", s.Bytes(), onDisk(), want)
	}
	if err := s.Remove(s.live[0].seq); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(s.live[len(s.live)-1].seq); err != nil {
		t.Fatal(err)
	}
	write(t, s, AppendFrame(nil, rec(99)))
	if s.Bytes() != onDisk() {
		t.Fatalf("after removes: Bytes %d, on disk %d", s.Bytes(), onDisk())
	}
	want = s.Bytes()
	s.Close()
	if re := openSegs(t, dir, 64); re.Bytes() != want {
		t.Fatalf("reopened: Bytes %d, want %d", re.Bytes(), want)
	}
}
