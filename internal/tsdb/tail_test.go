package tsdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"autoglobe/internal/journal"
)

// TestTailServesHotReads drives one entity at every commit cadence that
// lines up differently with the 64-sample block, on a disk store and a
// memory store. After every append and every commit, Latest and a read of
// the newest 64 samples must come from the tail with no disk read, right
// after a seal, when the open block is empty, included. On the disk
// store, once there is a sealed block and a non-empty open block, a read
// of the newest 65 samples needs the newest sealed block from disk. A
// reopened disk store must rebuild the tail, also when its last batch was
// torn between its row and its seal, and a closed store must still answer
// from it — and refuse, with ErrClosed, the read of 65.
func TestTailServesHotReads(t *testing.T) {
	const minutes = 5 * BlockSamples // the last commit's batch ends on a seal
	for _, cadence := range []int{1, 63, 64, 65, 130} {
		for _, disk := range []bool{true, false} {
			t.Run(fmt.Sprintf("%d/disk=%v", cadence, disk), func(t *testing.T) {
				dir := ""
				if disk {
					dir = t.TempDir()
				}
				st, err := Open(dir, Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				var want []Sample
				emptyOpen, deep := 0, 0
				// newest reads the newest k samples of want.
				newest := func(st *Store, h Handle, k int) ([]Sample, bool, error) {
					var got []Sample
					last := want[len(want)-1]
					read, err := st.Range(h, want[max(0, len(want)-k)].Minute, last.Minute+1, func(s Sample) { got = append(got, s) })
					return got, read, err
				}
				hot := func(label string, st *Store, h Handle) {
					t.Helper()
					last := want[len(want)-1]
					if s, ok := st.Latest(h); !ok || s != last {
						t.Fatalf("%s: Latest = %+v, %v; want %+v", label, s, ok, last)
					}
					got, read, err := newest(st, h, BlockSamples)
					if err != nil || read || !slices.Equal(got, want[max(0, len(want)-BlockSamples):]) {
						t.Fatalf("%s: the newest 64 samples: %d, disk read %v, err %v", label, len(got), read, err)
					}
					if h.e.n == 0 {
						emptyOpen++
					}
					if !disk || h.e.n == 0 || len(h.e.blocks) == 0 {
						return
					}
					got, read, err = newest(st, h, BlockSamples+1)
					if st.closed {
						if !read || !errors.Is(err, ErrClosed) {
							t.Fatalf("%s: the newest 65 samples: disk read %v, err %v; want one refused with ErrClosed", label, read, err)
						}
						return
					}
					if err != nil || !read || !slices.Equal(got, want[len(want)-BlockSamples-1:]) {
						t.Fatalf("%s: the newest 65 samples: %d, disk read %v, err %v", label, len(got), read, err)
					}
					deep++
				}
				var h Handle
				appendOne := func(st *Store, h *Handle, m int) {
					t.Helper()
					cpu, mem := load(0, m)
					s := Sample{Minute: m, CPU: cpu, Mem: mem}
					if err := st.AppendTo(h, "svc/a", s); err != nil {
						t.Fatal(err)
					}
					want = append(want, s)
				}
				for m := 0; m < minutes; m++ {
					appendOne(st, &h, m)
					hot(fmt.Sprintf("minute %d appended", m), st, h)
					if m%cadence == cadence-1 {
						if err := st.Commit(); err != nil {
							t.Fatal(err)
						}
						hot(fmt.Sprintf("minute %d committed", m), st, h)
					}
				}
				if err := st.Commit(); err != nil {
					t.Fatal(err)
				}
				hot("last commit", st, h)
				if emptyOpen == 0 {
					t.Fatal("no read came right after a seal: the case lost its teeth")
				}
				if disk && deep == 0 {
					t.Fatal("no read of 65 samples had a sealed block and an open one: the case lost its teeth")
				}
				// Below the tail only the disk store reads the disk.
				if read, err := st.Range(h, 0, minutes, func(Sample) {}); err != nil || read != disk {
					t.Fatalf("a read of everything: disk read %v, err %v", read, err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				hot("closed", st, h)
				if read, err := st.Range(h, 0, minutes, func(Sample) {}); read != disk || disk != errors.Is(err, ErrClosed) {
					t.Fatalf("closed: a read of everything: disk read %v, err %v", read, err)
				}
				if !disk {
					return
				}

				re := openStore(t, dir, Options{})
				hot("reopened", re, re.Lookup("svc/a"))
				re.Close()
				// The last batch was [row][seal]: cut the seal, and its block
				// reopens full and unsealed, the newest sealed block behind it.
				if !tearLastSeal(t, dir) {
					t.Fatal("the last frame is not a seal")
				}
				torn := openStore(t, dir, Options{})
				th := torn.Lookup("svc/a")
				if th.e.n != BlockSamples || len(torn.full) != 1 {
					t.Fatalf("torn: %d samples open, %d blocks awaiting their seal", th.e.n, len(torn.full))
				}
				hot("torn", torn, th)
				if err := torn.Commit(); err != nil {
					t.Fatal(err)
				}
				hot("torn, then sealed", torn, th)
				// A sealed block and a non-empty open block, then closed.
				for m := minutes; m < minutes+3; m++ {
					appendOne(torn, &th, m)
					hot(fmt.Sprintf("torn, minute %d appended", m), torn, th)
				}
				if err := torn.Close(); err != nil {
					t.Fatal(err)
				}
				hot("torn, closed with 3 open", torn, th)
			})
		}
	}
}

// countAgrees checks Count against a Range over every minute: the same
// number, or both failing (a closed store that needs the disk).
func countAgrees(t *testing.T, label string, st *Store, h Handle) {
	t.Helper()
	want := 0
	_, rerr := st.Range(h, math.MinInt, math.MaxInt, func(Sample) { want++ })
	got, err := st.Count(h)
	if (err != nil) != (rerr != nil) || (err == nil && got != want) {
		t.Fatalf("%s: Count = %d, %v; a Range over every minute visits %d, %v", label, got, err, want, rerr)
	}
}

// TestCountMatchesRange checks the block-index count a reopened archive
// rebuilds its counters from against a Range over every minute, on a
// disk store and a memory store: while appending across seals, with
// repeated and skipped minutes, after every compaction — most of which
// cut a sealed block, the newest one, served from the tail, included —
// after a reopen, after one whose last seal was torn off, and once
// closed.
func TestCountMatchesRange(t *testing.T) {
	for _, disk := range []bool{true, false} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			dir := ""
			if disk {
				dir = t.TempDir()
			}
			st := openStore(t, dir, Options{SegmentBytes: 4 << 10})
			var h Handle
			// cuts counts compactions whose watermark cuts a sealed block,
			// newest those that cut the newest one, which the tail serves.
			minute, cuts, newest := 0, 0, 0
			cut := func(st *Store, h Handle) {
				if blocks := h.e.blocks; len(blocks) > 0 && blocks[0].start < st.Watermark() {
					cuts++
					if len(blocks) == 1 && h.e.inTail(st.Watermark()) {
						newest++
					}
				}
			}
			for i := 0; i < 12*BlockSamples; i++ {
				switch i % 11 {
				case 3: // the same minute again
				case 7:
					minute += 3
				default:
					minute++
				}
				cpu, mem := load(0, minute)
				if err := st.AppendTo(&h, "svc/a", Sample{Minute: minute, CPU: cpu, Mem: mem}); err != nil {
					t.Fatal(err)
				}
				countAgrees(t, fmt.Sprintf("sample %d appended", i), st, h)
				if i%5 == 4 {
					if err := st.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				// Compact up to a quarter into the newest sealed block: the
				// hour boundary below it cuts that block or an older one.
				if blocks := h.e.blocks; i%97 == 96 && len(blocks) > 0 {
					last := blocks[len(blocks)-1]
					if err := st.CompactBefore(last.start + (last.end-last.start)/4); err != nil {
						t.Fatal(err)
					}
					cut(st, h)
					countAgrees(t, fmt.Sprintf("sample %d compacted", i), st, h)
				}
			}
			if cuts == 0 || newest == 0 {
				t.Fatalf("%d compactions cut a sealed block, %d the newest one: the case lost its teeth", cuts, newest)
			}
			if !disk {
				return
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			countAgrees(t, "closed", st, h)
			re := openStore(t, dir, Options{SegmentBytes: 4 << 10})
			rh := re.Lookup("svc/a")
			countAgrees(t, "reopened", re, rh)
			cuts = 0
			cut(re, rh)
			if cuts == 0 {
				t.Fatal("the reopened store's watermark cuts no block")
			}
			// Fill the open block, which Close seals, then tear that seal
			// off.
			for rh.e.n < BlockSamples {
				minute++
				if err := re.AppendTo(&rh, "svc/a", Sample{Minute: minute, CPU: 0.5}); err != nil {
					t.Fatal(err)
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if !tearLastSeal(t, dir) {
				t.Fatal("the last frame is not a seal")
			}
			torn := openStore(t, dir, Options{SegmentBytes: 4 << 10})
			th := torn.Lookup("svc/a")
			if len(torn.full) != 1 {
				t.Fatalf("torn: %d blocks await their seal, want 1", len(torn.full))
			}
			countAgrees(t, "torn", torn, th)
			if err := torn.Commit(); err != nil {
				t.Fatal(err)
			}
			countAgrees(t, "torn, then sealed", torn, th)
		})
	}
}

// tearLastSeal cuts the last frame of a closed disk store's newest
// minute segment off if there is one and it is a seal, as a crash
// between a batch's rows and its seal would, and reports whether it did.
func tearLastSeal(t *testing.T, dir string) bool {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "min-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		return false
	}
	slices.Sort(segs)
	seg := segs[len(segs)-1]
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	payloads, ends := journal.Frames(img)
	n := len(payloads)
	if n == 0 || payloads[n-1][0] != kBlock {
		return false
	}
	keep := 0
	if n > 1 {
		keep = ends[n-2]
	}
	truncateFile(t, seg, keep)
	return true
}

// FuzzTailWindows drives one entity through a script of steps, two bytes
// each — runs of appends with repeated and skipped minutes, commits,
// compactions, a close and reopen, a reopen whose last seal was torn off
// — on a disk store and on a memory store. After every step, every
// window that ends at the newest sample and starts 1–130 samples back
// must read as tiered_test.go's reference does, and Latest and Count must
// agree with it; Range must report a disk read exactly when the window
// needs a sample outside the newest BlockSamples, which a disk store
// holds on disk only (a memory store never reads the disk). A closed
// store answers the same windows, or refuses with ErrClosed exactly the
// ones that need the disk.
func FuzzTailWindows(f *testing.F) {
	f.Add([]byte{0, 200, 1, 255, 2, 255, 6, 0, 3, 40, 4, 0, 5, 30, 0, 90})
	f.Add([]byte{0, 255, 1, 255, 2, 255, 7, 0, 0, 17, 4, 0, 7, 0, 5, 0})
	f.Add([]byte{0, 63, 4, 0, 1, 0, 4, 0, 2, 200, 5, 100, 6, 0, 3, 255, 7, 0})
	f.Add([]byte{3, 7, 3, 7, 3, 7, 3, 7, 4, 0, 3, 8, 5, 9, 3, 7, 6, 0, 3, 1})
	// A repeated minute straddles the cut: the sample the open block
	// overwrote last and the oldest one left share minute 2.
	f.Add([]byte("080A0X"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 128 {
			script = script[:128]
		}
		for _, disk := range []bool{true, false} {
			runTailScript(t, script, disk)
		}
	})
}

// runTailScript runs one FuzzTailWindows script on one kind of store.
func runTailScript(t *testing.T, script []byte, disk bool) {
	const entity = "svc/a"
	dir := ""
	if disk {
		dir = t.TempDir()
	}
	opts := Options{SegmentBytes: 8 << 10}
	st := openStore(t, dir, opts)
	var h Handle
	ref := &reference{}
	minute := 0
	check := func(label string) {
		t.Helper()
		all := ref.samples[entity]
		if len(all) == 0 {
			return
		}
		wm := st.Watermark()
		raw := ref.expect(entity, wm)
		if s, ok := st.Latest(h); ok != (len(raw) > 0) || (ok && s != raw[len(raw)-1]) {
			t.Fatalf("%s: Latest = %+v, %v; %d raw samples", label, s, ok, len(raw))
		}
		if n, err := st.Count(h); (err != nil || n != len(raw)) && !(st.closed && errors.Is(err, ErrClosed)) {
			t.Fatalf("%s: Count = %d, %v; want %d", label, n, err, len(raw))
		}
		to := all[len(all)-1].Minute + 1
		for k := 1; k <= 130 && k <= len(all); k++ {
			from := all[len(all)-k].Minute
			lo := max(from, wm)
			want := raw[below(raw, lo):]
			// The newest sample outside the tail, all[len(all)-65], is
			// needed if the window reaches it.
			needs := disk && len(all) > BlockSamples && all[len(all)-BlockSamples-1].Minute >= lo
			var got []Sample
			read, err := st.Range(h, from, to, func(s Sample) { got = append(got, s) })
			if read != needs {
				t.Fatalf("%s: the newest %d samples from minute %d: disk read %v, want %v", label, k, from, read, needs)
			}
			if st.closed && needs {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("%s: closed: the newest %d samples: err %v, want ErrClosed", label, k, err)
				}
				continue
			}
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: the newest %d samples from minute %d: %d samples, err %v; the reference has %d", label, k, from, len(got), err, len(want))
			}
		}
	}
	reopen := func(torn bool) {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		check("closed")
		if torn {
			tearLastSeal(t, dir)
		}
		st = openStore(t, dir, opts)
		h = st.Lookup(entity)
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, int(script[i+1])
		switch {
		case op < 4: // a run of appends; op 3 repeats and skips more minutes
			rng := uint32(arg)*2654435761 + uint32(i)
			for j := 0; j <= arg%48; j++ {
				rng = rng*1664525 + 1013904223
				switch g := rng >> 28; {
				case g < 2 || (op == 3 && g < 6): // the same minute again
				case g == 15 || (op == 3 && g > 12):
					minute += 2 + int(rng>>24&7)
				default:
					minute++
				}
				s := Sample{Minute: minute, CPU: float64(rng>>8&0xffff) / 65536, Mem: float64(j) / 64}
				if err := st.AppendTo(&h, entity, s); err != nil {
					t.Fatal(err)
				}
				ref.add(entity, s)
			}
		case op == 4:
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		case op == 5: // compact behind the newest minute; the archive compacts behind its retention
			if err := st.CompactBefore(minute - arg); err != nil {
				t.Fatal(err)
			}
		case disk: // a close and reopen; op 7 tears the last seal off first
			reopen(op == 7)
		}
		check(fmt.Sprintf("step %d (op %d, arg %d)", i/2, op, arg))
	}
}
