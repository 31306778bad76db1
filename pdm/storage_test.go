package pdm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestFileStorageMatchesFlatModel: whatever sequence of writes, reads,
// imports, views and removals a disk sees — sparse, overlapping, straddling
// extents, zero-length — its files read back exactly like flat byte slices
// that grow with zeros, reads past the end fail with the documented error,
// and the traffic counters count exactly the operations that succeeded.
func TestFileStorageMatchesFlatModel(t *testing.T) {
	const span = 3*extentBytes + extentBytes/2 // offsets and sizes range over a few extents
	names := []string{"a", "b", "c"}
	model := DiskModel{SeekLatency: 3 * time.Nanosecond} // Busy counts ops; never enough debt to sleep

	run := func(seed int64) (err error) {
		rng := rand.New(rand.NewSource(seed))
		d := NewDisk(model)
		flat := map[string][]byte{}
		var want Counters

		// Lengths favour the interesting cases: empty, a few bytes, just
		// around an extent boundary, several extents.
		length := func() int {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return 1 + rng.Intn(64)
			case 2:
				return extentBytes - 32 + rng.Intn(64)
			default:
				return rng.Intn(span)
			}
		}
		offset := func() int64 {
			if rng.Intn(3) == 0 {
				return int64(rng.Intn(4))*extentBytes - int64(rng.Intn(3)) + 1 // next to a boundary
			}
			return int64(rng.Intn(span))
		}
		random := func(n int) []byte {
			p := make([]byte, n)
			rng.Read(p)
			return p
		}
		pastEnd := func(name string, off int64, n int) string {
			return fmt.Sprintf("pdm: read [%d,%d) beyond end of %q (size %d)", off, off+int64(n), name, len(flat[name]))
		}
		missing := func(name string) string { return fmt.Sprintf("pdm: file %q does not exist", name) }

		for step := 0; step < 60; step++ {
			name := names[rng.Intn(len(names))]
			ref, exists := flat[name]
			fail := func(format string, args ...any) error {
				return fmt.Errorf("seed %d step %d, file %q: %s", seed, step, name, fmt.Sprintf(format, args...))
			}
			switch op := rng.Intn(10); {
			case op < 4: // WriteAt
				p, off := random(length()), max(offset(), 0)
				if err := d.WriteAt(name, p, off); err != nil {
					return fail("WriteAt: %v", err)
				}
				if need := int(off) + len(p); need > len(ref) {
					ref = append(ref, make([]byte, need-len(ref))...)
				}
				copy(ref[off:], p)
				flat[name] = ref
				want.WriteOps++
				want.BytesWritten += int64(len(p))
				want.Busy += model.Cost(len(p))
			case op < 7: // ReadAt
				p, off := make([]byte, length()), max(offset(), 0)
				err := d.ReadAt(name, p, off)
				switch {
				case !exists:
					if err == nil || err.Error() != missing(name) {
						return fail("ReadAt of a missing file: %v", err)
					}
				case int(off)+len(p) > len(ref):
					if err == nil || err.Error() != pastEnd(name, off, len(p)) {
						return fail("ReadAt past the end: %v, want %q", err, pastEnd(name, off, len(p)))
					}
				default:
					if err != nil {
						return fail("ReadAt: %v", err)
					}
					if !bytes.Equal(p, ref[off:int(off)+len(p)]) {
						return fail("ReadAt(%d, %d bytes) differs from the model", off, len(p))
					}
					want.ReadOps++
					want.BytesRead += int64(len(p))
					want.Busy += model.Cost(len(p))
				}
			case op == 7: // View: the same bytes, in place, free of charge
				n, off := length(), max(offset(), 0)
				pieces, err := d.View(name, off, n)
				switch {
				case !exists:
					if err == nil || err.Error() != missing(name) {
						return fail("View of a missing file: %v", err)
					}
				case int(off)+n > len(ref):
					if err == nil || err.Error() != pastEnd(name, off, n) {
						return fail("View past the end: %v", err)
					}
				default:
					if err != nil {
						return fail("View: %v", err)
					}
					if got := bytes.Join(pieces, nil); !bytes.Equal(got, ref[off:int(off)+n]) {
						return fail("View(%d, %d bytes) differs from the model", off, n)
					}
				}
			case op == 8: // Import: the disk takes the slice over; the model keeps a copy
				data := random(length())
				flat[name] = append([]byte(nil), data...)
				d.Import(name, data)
			default: // Remove
				d.Remove(name)
				delete(flat, name)
			}
			for _, name := range names {
				if got, want := d.Size(name), int64(len(flat[name])); got != want {
					return fail("Size(%q) = %d, want %d", name, got, want)
				}
			}
		}
		for _, name := range names {
			got := d.Export(name)
			if ref, ok := flat[name]; !ok && got != nil || !bytes.Equal(got, ref) {
				return fmt.Errorf("seed %d: final contents of %q differ from the model", seed, name)
			}
		}
		if got := d.Stats(); got != want {
			return fmt.Errorf("seed %d: counters %+v, want %+v", seed, got, want)
		}
		return nil
	}

	check := func(seed int64) bool {
		if err := run(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestImportTakesOwnership: Import does not copy — the file is the caller's
// slice, so a later write lands in it — and a file imported short of an
// extent boundary still grows correctly.
func TestImportTakesOwnership(t *testing.T) {
	d := NewDisk(NullDiskModel)
	data := bytes.Repeat([]byte{7}, extentBytes+100)
	d.Import("f", data)
	if err := d.WriteAt("f", []byte{1, 2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[10:13], []byte{1, 2, 3}) {
		t.Fatal("a write to an imported file did not land in the imported slice: Import copied")
	}
	// Growing past the short last extent must keep its bytes and zero the gap.
	if err := d.WriteAt("f", []byte{9}, extentBytes+200); err != nil {
		t.Fatal(err)
	}
	got := d.Export("f")
	want := append(append([]byte(nil), data...), make([]byte, 101)...)
	want[extentBytes+200] = 9
	if !bytes.Equal(got, want) {
		t.Fatal("growing an imported file past its last extent corrupted it")
	}
}

// TestGrowthAllocatesOnlyNewExtents: appending to a large file costs the
// extents appended, not a copy of the file.
func TestGrowthAllocatesOnlyNewExtents(t *testing.T) {
	d := NewDisk(NullDiskModel)
	block := make([]byte, extentBytes)
	for i := 0; i < 256; i++ { // 16 MiB
		if err := d.WriteAt("f", block, int64(i)*extentBytes); err != nil {
			t.Fatal(err)
		}
	}
	next := int64(256)
	allocs := testing.AllocsPerRun(20, func() {
		if err := d.WriteAt("f", block, next*extentBytes); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// One extent, and now and then a longer extent table.
	if allocs > 3 {
		t.Fatalf("appending one extent to a 16 MiB file allocates %.1f objects", allocs)
	}
	overwrite := testing.AllocsPerRun(20, func() {
		if err := d.WriteAt("f", block, 5*extentBytes+100); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadAt("f", block, 7*extentBytes-100); err != nil {
			t.Fatal(err)
		}
	})
	if overwrite != 0 {
		t.Fatalf("overwriting and reading stored bytes allocates %.1f objects, want 0", overwrite)
	}
}
