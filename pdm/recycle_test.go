package pdm

import (
	"bytes"
	"testing"
)

// TestRecycledExtentsReadZerosWhereUnwritten: a disk's extents come from a
// free list that holds earlier files' bytes, yet every byte of a file that
// no write covered reads as zero, as it did when each extent was made
// fresh. The list is primed with extents full of 0xff, so a byte that
// should have been zeroed shows.
func TestRecycledExtentsReadZerosWhereUnwritten(t *testing.T) {
	for range 16 {
		extentPool.Put(bytes.Repeat([]byte{0xff}, extentBytes))
	}
	d := NewDisk(NullDiskModel)
	flat := map[string][]byte{}
	write := func(name string, p []byte, off int64) {
		t.Helper()
		if err := d.WriteAt(name, p, off); err != nil {
			t.Fatal(err)
		}
		ref := flat[name]
		if need := int(off) + len(p); need > len(ref) {
			ref = append(ref, make([]byte, need-len(ref))...)
		}
		copy(ref[off:], p)
		flat[name] = ref
	}
	ones := bytes.Repeat([]byte{1}, 10)

	// A partial-extent write: the taken extent's head and tail are unwritten.
	write("partial", ones, 100)
	write("partial", ones, 1000) // grows into the first write's tail
	// A write past a hole: two nil extents, then a taken one written from
	// its middle.
	write("hole", ones, 2*extentBytes+5)
	write("hole", ones, 2*extentBytes+500)
	// A write that widens an imported short last extent: the imported
	// bytes are kept, the rest of the widened extent is unwritten.
	imported := bytes.Repeat([]byte{7}, extentBytes+100)
	d.Import("imported", imported)
	flat["imported"] = bytes.Clone(imported)
	write("imported", ones, extentBytes+300)
	write("imported", ones, extentBytes+900)
	// A filled file grows into its last extent's tail.
	d.Fill("filled", 100, func(p []byte) {
		for i := range p {
			p[i] = 5
		}
	})
	flat["filled"] = bytes.Repeat([]byte{5}, 100)
	write("filled", ones, 400)

	for name, ref := range flat {
		if got := d.Export(name); !bytes.Equal(got, ref) {
			i := 0
			for i < len(ref) && got[i] == ref[i] {
				i++
			}
			t.Errorf("%q reads %#x at byte %d, want %#x: an unwritten byte kept a recycled extent's contents", name, got[i], i, ref[i])
		}
	}
}
