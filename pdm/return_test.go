package pdm_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/pdm"
)

const extent = pdm.ExtentBytes

// TestStorageComesBackOnlyTheDisks: removing a file and closing a cluster
// give the free list exactly the extents the disks took — holes and
// imported slices are not storage of theirs — and an imported slice is
// still intact after the next job has rewritten every recycled extent.
// A WriteAt after Close writes into new storage, never into released.
func TestStorageComesBackOnlyTheDisks(t *testing.T) {
	write := func(d *pdm.Disk, name string, p []byte, off int64) {
		t.Helper()
		if err := d.WriteAt(name, p, off); err != nil {
			t.Fatal(err)
		}
	}
	returned := func(fn func()) int64 {
		before := pdm.ExtentBytesPut()
		fn()
		return pdm.ExtentBytesPut() - before
	}

	d := pdm.NewDisk(pdm.NullDiskModel)
	write(d, "a", make([]byte, 2*extent+extent/2), 0) // 3 extents
	write(d, "holes", make([]byte, 10), 2*extent+7)   // 2 holes, 1 extent
	if got := returned(func() { d.Remove("a") }); got != 3*extent {
		t.Errorf("Remove of a 3-extent file gave back %d bytes, want %d", got, 3*extent)
	}
	if got := returned(func() { d.Remove("holes") }); got != extent {
		t.Errorf("Remove of a file with 2 holes and 1 extent gave back %d bytes, want %d", got, extent)
	}
	if got := returned(func() { d.Remove("holes") }); got != 0 {
		t.Errorf("Remove of a missing file gave back %d bytes", got)
	}

	// A cluster whose rank 0 holds an imported file: two full extents and
	// a short one, which a write widens into one of the disk's own.
	c := cluster.New(cluster.Config{Nodes: 2})
	disks := c.Disks()
	slab := bytes.Repeat([]byte{7}, 2*extent+100)
	disks[0].Import("in", slab)
	write(disks[0], "in", []byte{1, 2, 3}, 10) // lands in the slab
	write(disks[0], "in", []byte{4}, 2*extent+500)
	wantSlab := bytes.Clone(slab)
	write(disks[0], "out", make([]byte, extent), 0)
	write(disks[1], "out", make([]byte, 3*extent), 0)
	d.Import("replaced", make([]byte, extent))
	write(d, "replaced", []byte{1}, extent) // one extent of the disk's own
	if got := returned(func() { d.Import("replaced", nil) }); got != extent {
		t.Errorf("replacing an imported file by Import gave back %d bytes, want only the disk's %d", got, extent)
	}
	if got, want := returned(func() { c.Close() }), int64(1+1+3)*extent; got != want {
		t.Errorf("Cluster.Close gave back %d bytes, want the disks' own %d", got, want)
	}
	if got := returned(func() { c.Close() }); got != 0 {
		t.Errorf("a second Cluster.Close gave back %d bytes", got)
	}

	// The next job takes every recycled extent and overwrites it. The
	// closed disk is written again meanwhile.
	next := pdm.NewDisk(pdm.NullDiskModel)
	junk := bytes.Repeat([]byte{0xee}, 64*extent)
	write(next, "out", junk, 0)
	write(disks[1], "late", bytes.Repeat([]byte{0x11}, 2*extent), 0)
	if !bytes.Equal(slab, wantSlab) {
		t.Error("an imported slice changed after its disk was closed: it was recycled")
	}
	if got := next.Export("out"); !bytes.Equal(got, junk) {
		t.Error("a WriteAt after Close wrote into storage the closed disk had given back")
	}
	if got := disks[1].Export("late"); !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 2*extent)) {
		t.Error("a WriteAt after Close lost its bytes")
	}
	if got := disks[1].Export("out"); got != nil {
		t.Error("a closed disk still holds its files")
	}
	next.Close()
	disks[1].Close()
}

// TestConcurrentDisksNeverShareStorage: disks writing, checking and closing
// at once — and writing again after Close — each read back only their own
// bytes, and together give back exactly the extents they took. Run under
// -race, a slice handed to two disks at once shows as a data race too.
func TestConcurrentDisksNeverShareStorage(t *testing.T) {
	const disks, rounds, extents = 4, 20, 3
	before := pdm.ExtentBytesPut()
	var wg sync.WaitGroup
	errs := make(chan error, disks)
	for k := range disks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := pdm.NewDisk(pdm.NullDiskModel)
			for r := range rounds {
				for i, name := range []string{"before", "after"} {
					mine := bytes.Repeat([]byte{byte(k<<5 | r<<1 | i)}, extents*extent-1)
					if err := d.WriteAt(name, mine, 1); err != nil {
						errs <- err
						return
					}
					got := make([]byte, len(mine))
					if err := d.ReadAt(name, got, 1); err != nil || !bytes.Equal(got, mine) {
						errs <- fmt.Errorf("disk %d round %d: %q lost its bytes to another disk (err %v)", k, r, name, err)
						return
					}
					if name == "before" {
						d.Close() // "after" is written to the closed disk
					}
				}
				d.Remove("after")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := pdm.ExtentBytesPut()-before, int64(disks*rounds*2*extents*extent); got != want {
		t.Errorf("the disks gave back %d bytes, want the %d they took", got, want)
	}
}
