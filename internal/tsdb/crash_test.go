package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"autoglobe/internal/journal"
)

// copyDir clones every segment file of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func truncateFile(t *testing.T, path string, n int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n > len(b) {
		t.Fatalf("truncate %d beyond %d bytes", n, len(b))
	}
	if err := os.WriteFile(path, b[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashPointSweepTSDB kills the store at every record boundary of
// its data stream — and one byte before each, mid-frame — and reopens.
// The durability contract at every point: no acked sample is lost (a
// sample is acked when the Commit after it returned and its bytes are
// within the surviving prefix), and recovery is an intact prefix of the
// appended sequence per entity — never a gap, never a reorder, never an
// invented sample. The cuts inside a burst minute — after its row frame
// and after each of its seal frames but the last — leave full blocks
// with no frame behind them: the next commit must seal each exactly
// once, and a second reopen must read the same samples out of one block
// per 64, none twice.
func TestCrashPointSweepTSDB(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{SegmentBytes: 1 << 20}) // one data segment
	const ents, minutes = 3, 130                            // spans two seals per entity
	type ack struct {
		size  int64 // data segment size after the commit
		count int   // samples per entity acked by then
	}
	var acks []ack
	want := make(map[string][]Sample)
	segPath := filepath.Join(dir, "min-00000000.seg")
	for m := 0; m < minutes; m++ {
		for e := 0; e < ents; e++ {
			name := fmt.Sprintf("svc/app-%d", e)
			cpu, mem := load(e, m)
			s := Sample{Minute: m, CPU: cpu, Mem: mem}
			if err := st.Append(name, s); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], s)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack{size: fi.Size(), count: m + 1})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	img, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	_, boundaries := journal.Frames(img)
	points := []int{0}
	for _, b := range boundaries {
		points = append(points, b-1, b) // mid-frame and clean cut
	}
	orphanCuts := 0
	for _, cut := range points {
		// The largest fully-acked commit within the surviving prefix is
		// the floor recovery must reach.
		floor := 0
		for _, a := range acks {
			if a.size <= int64(cut) {
				floor = a.count
			}
		}
		crashed := copyDir(t, dir)
		truncateFile(t, filepath.Join(crashed, "min-00000000.seg"), cut)
		re, err := Open(crashed, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(re.full) > 0 {
			orphanCuts++
		}
		recovered := make(map[string][]Sample)
		for name, ws := range want {
			got := collect(t, re, name, 0, minutes)
			recovered[name] = got
			if len(got) < floor {
				t.Fatalf("cut %d: %s: recovered %d samples, acked floor %d — acked data lost",
					cut, name, len(got), floor)
			}
			if len(got) > len(ws) {
				t.Fatalf("cut %d: %s: recovered %d samples, only %d ever written",
					cut, name, len(got), len(ws))
			}
			for i := range got {
				if got[i] != ws[i] {
					t.Fatalf("cut %d: %s[%d]: got %+v, want %+v — not an intact prefix",
						cut, name, i, got[i], ws[i])
				}
			}
		}
		// The next commit seals what the cut orphaned; nothing moves.
		if err := re.Commit(); err != nil {
			t.Fatalf("cut %d: commit after reopen: %v", cut, err)
		}
		for pass, st := range []*Store{re, nil} {
			if st == nil {
				if st, err = Open(crashed, Options{NoSync: true}); err != nil {
					t.Fatalf("cut %d: second reopen: %v", cut, err)
				}
			}
			for name, rs := range recovered {
				got := collect(t, st, name, 0, minutes)
				if !slices.Equal(got, rs) {
					t.Fatalf("cut %d pass %d: %s: %d samples after the sealing commit, %d before it",
						cut, pass, name, len(got), len(rs))
				}
				e := st.ents[st.ids[name]]
				if len(e.blocks) != len(rs)/BlockSamples || e.n != len(rs)%BlockSamples {
					t.Fatalf("cut %d pass %d: %s: %d samples in %d blocks + %d open",
						cut, pass, name, len(rs), len(e.blocks), e.n)
				}
			}
			st.Close()
		}
	}
	// Two bursts; in each, the clean cut after the row and both cuts at
	// every seal but the clean one after the last.
	if orphanCuts != 2*(1+2*ents-1) {
		t.Fatalf("only %d cuts fell between a burst's rows and its last seal", orphanCuts)
	}
}

// TestCrashPointSweepDict kills the store inside its very first commit,
// at every boundary of the dictionary stream with no data stream yet:
// recovery yields the surviving prefix of entities, each empty.
func TestCrashPointSweepDict(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	for e := 0; e < 4; e++ {
		if err := st.Append(fmt.Sprintf("svc/app-%d", e), Sample{Minute: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dictPath := filepath.Join(dir, "dict-00000000.seg")
	img, err := os.ReadFile(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	_, boundaries := journal.Frames(img)
	for i, b := range boundaries {
		for _, cut := range []int{b - 1, b} {
			crashed := copyDir(t, dir)
			truncateFile(t, filepath.Join(crashed, "dict-00000000.seg"), cut)
			// The dict is written (and with sync, made durable) before
			// the data stream of the same commit; a crash mid-dict means
			// the data write never happened.
			os.Remove(filepath.Join(crashed, "min-00000000.seg"))
			re, err := Open(crashed, Options{NoSync: true})
			if err != nil {
				t.Fatalf("cut %d: reopen: %v", cut, err)
			}
			wantEnts := i
			if cut == b {
				wantEnts = i + 1
			}
			if got := len(re.Entities()); got != wantEnts {
				t.Fatalf("cut %d: recovered %d entities, want %d", cut, got, wantEnts)
			}
			re.Close()
		}
	}
}

// TestCrashPointSweepCompaction kills the store at every byte of the
// one frame a retention cut writes — which a reopened store appends to a
// fresh dictionary segment — with the minute segments still as they were
// before the cut (pruning runs only after the cut's write returns).
// Below the frame's end the store reopens with no cut and every minute;
// at its end, with the cut at 120 and every minute from 120 on.
func TestCrashPointSweepCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	const minutes = 200
	for m := 0; m < minutes; m++ {
		for e := 0; e < 2; e++ {
			cpu, mem := load(e, m)
			if err := st.Append(fmt.Sprintf("svc/app-%d", e), Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
				t.Fatal(err)
			}
		}
		if m%7 == 6 {
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	preCompaction := copyDir(t, dir)

	// Run the cut on a clone to obtain the frame it writes.
	compDir := copyDir(t, dir)
	cst, err := Open(compDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cst.CompactBefore(120); err != nil {
		t.Fatal(err)
	}
	if err := cst.Close(); err != nil {
		t.Fatal(err)
	}
	cutName := tierPrefix[dictTier] + "-00000001.seg"
	img, err := os.ReadFile(filepath.Join(compDir, cutName))
	if err != nil {
		t.Fatal(err)
	}
	if _, ends := journal.Frames(img); len(ends) != 1 || ends[0] != len(img) {
		t.Fatalf("the cut wrote frames ending at %v in %d bytes, want one", ends, len(img))
	}
	for cut := 0; cut <= len(img); cut++ {
		crashed := copyDir(t, preCompaction)
		if err := os.WriteFile(filepath.Join(crashed, cutName), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(crashed, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		wantWM := 0
		if cut == len(img) {
			wantWM = 120
		}
		if wm := re.Watermark(); wm != wantWM {
			t.Fatalf("cut %d: retention cut %d, want %d", cut, wm, wantWM)
		}
		for e := 0; e < 2; e++ {
			name := fmt.Sprintf("svc/app-%d", e)
			var want []Sample
			for m := wantWM; m < minutes; m++ {
				cpu, mem := load(e, m)
				want = append(want, Sample{Minute: m, CPU: cpu, Mem: mem})
			}
			if got := collect(t, re, name, 0, minutes); !slices.Equal(got, want) {
				t.Fatalf("cut %d: %s: %d minutes, want the %d from %d", cut, name, len(got), len(want), wantWM)
			}
		}
		re.Close()
	}
}

// minuteSegments returns the names of dir's minute-tier segment files,
// oldest first, and their images.
func minuteSegments(t *testing.T, dir string) (names []string, imgs [][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir) // sorted by name: by segment number
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tierPrefix[minuteTier]+"-") {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			names, imgs = append(names, e.Name()), append(imgs, b)
		}
	}
	return names, imgs
}

// chunkEnds returns where commitMinutes ends its writes within one
// commit, as offsets from the commit's start: after rows bytes of row
// frames, then after each run of seal frames — sizes in seals — that a
// chunk takes while below rowFrameBytes, as many as sealFrameBytes each
// would fit and at least one.
func chunkEnds(rows int, seals []int) []int {
	pos, chunk := rows, rows
	var ends []int
	if chunk >= rowFrameBytes || len(seals) == 0 {
		ends, chunk = append(ends, pos), 0
	}
	for len(seals) > 0 {
		n := min(len(seals), max(1, (rowFrameBytes-chunk)/sealFrameBytes))
		for _, s := range seals[:n] {
			pos += s
		}
		seals, chunk = seals[n:], 0
		ends = append(ends, pos)
	}
	return ends
}

// TestCrashPointSweepTSDBChunks is TestCrashPointSweepTSDB at a fleet
// whose seal bursts take several writes: 400 entities seal 400 blocks a
// burst, in three chunks, and 400 KiB segments make each burst rotate
// between two of them. The minute stream — its segments end to end — is
// cut at every chunk boundary of both bursts and one byte before each:
// a crash between two writes of one commit, or inside one. After each
// reopen no acked sample is lost, every sample reads back exactly once,
// the blocks whose seal frames the cut dropped are full and unsealed,
// and the next commit seals each of them exactly once.
func TestCrashPointSweepTSDBChunks(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{SegmentBytes: 400 << 10})
	const ents, minutes = 400, 2*BlockSamples + 2
	handles := make([]Handle, ents)
	names := make([]string, ents)
	want := make(map[string][]Sample)
	for e := range names {
		names[e] = fmt.Sprintf("svc/app-%d", e)
	}
	streamSize := func() (n int) {
		_, imgs := minuteSegments(t, dir)
		for _, img := range imgs {
			n += len(img)
		}
		return n
	}
	type ack struct{ size, count int } // stream size after a commit, samples per entity acked by then
	var acks []ack
	var bursts [][2]int // each seal burst commit's [start, end) in the stream
	for m := 0; m < minutes; m++ {
		start := streamSize()
		for e, name := range names {
			cpu, mem := load(e, m)
			s := Sample{Minute: m, CPU: cpu, Mem: mem}
			if err := st.AppendTo(&handles[e], name, s); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], s)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack{streamSize(), m + 1})
		if m%BlockSamples == BlockSamples-1 {
			bursts = append(bursts, [2]int{start, acks[len(acks)-1].size})
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segNames, imgs := minuteSegments(t, dir)
	var stream []byte
	segStart := make(map[int]bool) // stream offsets at which a segment begins
	for _, img := range imgs {
		segStart[len(stream)] = true
		stream = append(stream, img...)
	}

	type cut struct{ at, orphans int }
	var cuts []cut
	for _, b := range bursts {
		payloads, bounds := journal.Frames(stream[b[0]:b[1]])
		rows, prev := 0, 0
		var seals, sealEnds []int
		for i, p := range payloads {
			if p[0] == kRow {
				rows = bounds[i]
			} else {
				seals, sealEnds = append(seals, bounds[i]-prev), append(sealEnds, b[0]+bounds[i])
			}
			prev = bounds[i]
		}
		if len(seals) != ents || bounds[len(bounds)-1] != b[1]-b[0] {
			t.Fatalf("burst at %d: %d seal frames, want %d", b[0], len(seals), ents)
		}
		ends := chunkEnds(rows, seals)
		if len(ends) < 2 {
			t.Fatalf("burst at %d: %d chunks, want at least two", b[0], len(ends))
		}
		// Writes are the unit of rotation: a segment the burst started
		// begins at one of its chunk boundaries, and one of them does.
		rotated := 0
		for at := b[0] + 1; at < b[1]; at++ {
			if segStart[at] {
				if !slices.Contains(ends, at-b[0]) {
					t.Fatalf("burst at %d: a segment starts at %d, inside a chunk (ends %v)", b[0], at-b[0], ends)
				}
				rotated++
			}
		}
		if rotated == 0 {
			t.Fatalf("burst at %d: no rotation between its chunks", b[0])
		}
		for _, end := range ends {
			for _, at := range []int{b[0] + end - 1, b[0] + end} {
				orphans := 0
				if at >= b[0]+rows {
					for _, se := range sealEnds {
						if se > at {
							orphans++
						}
					}
				}
				cuts = append(cuts, cut{at, orphans})
			}
		}
	}

	for _, c := range cuts {
		floor := 0 // the acked floor: the newest commit wholly within the cut
		for _, a := range acks {
			if a.size <= c.at {
				floor = a.count
			}
		}
		// A crash keeps a prefix of the stream: the segment holding the
		// cut is truncated there and every later one never existed.
		crashed := copyDir(t, dir)
		for i, off := 0, 0; i < len(segNames); off, i = off+len(imgs[i]), i+1 {
			switch path := filepath.Join(crashed, segNames[i]); {
			case off >= c.at:
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			case off+len(imgs[i]) > c.at:
				truncateFile(t, path, c.at-off)
			}
		}
		re, err := Open(crashed, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", c.at, err)
		}
		if len(re.full) != c.orphans {
			t.Fatalf("cut %d: %d full blocks await their seal, want %d", c.at, len(re.full), c.orphans)
		}
		recovered := make(map[string][]Sample)
		for name, ws := range want {
			got := collect(t, re, name, 0, minutes)
			if len(got) < floor || len(got) > len(ws) || !slices.Equal(got, ws[:len(got)]) {
				t.Fatalf("cut %d: %s: recovered %d samples, acked floor %d, %d written — not an intact prefix",
					c.at, name, len(got), floor, len(ws))
			}
			recovered[name] = got
		}
		if err := re.Commit(); err != nil {
			t.Fatalf("cut %d: commit after reopen: %v", c.at, err)
		}
		for pass, st := range []*Store{re, nil} {
			if st == nil {
				if st, err = Open(crashed, Options{NoSync: true}); err != nil {
					t.Fatalf("cut %d: second reopen: %v", c.at, err)
				}
			}
			for name, rs := range recovered {
				if got := collect(t, st, name, 0, minutes); !slices.Equal(got, rs) {
					t.Fatalf("cut %d pass %d: %s: %d samples after the sealing commit, %d before it",
						c.at, pass, name, len(got), len(rs))
				}
				e := st.ents[st.ids[name]]
				if len(e.blocks) != len(rs)/BlockSamples || e.n != len(rs)%BlockSamples {
					t.Fatalf("cut %d pass %d: %s: %d samples in %d blocks + %d open",
						c.at, pass, name, len(rs), len(e.blocks), e.n)
				}
			}
			st.Close()
		}
	}
}
