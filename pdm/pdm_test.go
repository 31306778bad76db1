package pdm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDiskWriteReadRoundTrip(t *testing.T) {
	d := NewDisk(NullDiskModel)
	want := []byte("hello out-of-core world")
	if err := d.WriteAt("f", want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := d.ReadAt("f", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("round trip: got %q, want %q", got, want)
	}
}

func TestDiskSparseWriteGrowsFile(t *testing.T) {
	d := NewDisk(NullDiskModel)
	if err := d.WriteAt("f", []byte{0xff}, 100); err != nil {
		t.Fatal(err)
	}
	if got := d.Size("f"); got != 101 {
		t.Fatalf("Size = %d, want 101", got)
	}
	// The gap reads back as zeros.
	gap := make([]byte, 100)
	if err := d.ReadAt("f", gap, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("gap byte %d = %#x, want 0", i, b)
		}
	}
}

func TestDiskOverwrite(t *testing.T) {
	d := NewDisk(NullDiskModel)
	if err := d.WriteAt("f", []byte("aaaaaaaa"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt("f", []byte("bb"), 3); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := d.ReadAt("f", got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaabbaaa" {
		t.Errorf("after overwrite: %q", got)
	}
}

func TestDiskReadErrors(t *testing.T) {
	d := NewDisk(NullDiskModel)
	if err := d.ReadAt("missing", make([]byte, 1), 0); err == nil {
		t.Error("read of missing file succeeded")
	}
	if err := d.WriteAt("f", []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt("f", make([]byte, 4), 0); err == nil {
		t.Error("read beyond EOF succeeded")
	}
	if err := d.ReadAt("f", make([]byte, 1), -1); err == nil {
		t.Error("read at negative offset succeeded")
	}
	if err := d.WriteAt("f", make([]byte, 1), -1); err == nil {
		t.Error("write at negative offset succeeded")
	}
}

func TestDiskRemove(t *testing.T) {
	d := NewDisk(NullDiskModel)
	if err := d.WriteAt("f", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	d.Remove("f")
	if d.Size("f") != 0 {
		t.Error("file survives Remove")
	}
	if err := d.ReadAt("f", make([]byte, 1), 0); err == nil {
		t.Error("removed file is readable")
	}
}

func TestDiskCounters(t *testing.T) {
	d := NewDisk(NullDiskModel)
	if err := d.WriteAt("f", make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt("f", make([]byte, 50), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt("f", make([]byte, 70), 10); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.WriteOps != 2 || s.BytesWritten != 150 {
		t.Errorf("write counters: %+v", s)
	}
	if s.ReadOps != 1 || s.BytesRead != 70 {
		t.Errorf("read counters: %+v", s)
	}
	if s.TotalBytes() != 220 {
		t.Errorf("TotalBytes = %d, want 220", s.TotalBytes())
	}
	d.ResetStats()
	if d.Stats().TotalBytes() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{ReadOps: 1, WriteOps: 2, BytesRead: 3, BytesWritten: 4, Busy: 5}
	b := Counters{ReadOps: 10, WriteOps: 20, BytesRead: 30, BytesWritten: 40, Busy: 50}
	a.Add(b)
	want := Counters{ReadOps: 11, WriteOps: 22, BytesRead: 33, BytesWritten: 44, Busy: 55}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}

func TestDiskModelCost(t *testing.T) {
	m := DiskModel{SeekLatency: time.Millisecond, BytesPerSecond: 1e6}
	if got := m.Cost(0); got != time.Millisecond {
		t.Errorf("Cost(0) = %v, want 1ms", got)
	}
	// 1000 bytes at 1 MB/s is 1 ms transfer + 1 ms seek.
	if got := m.Cost(1000); got != 2*time.Millisecond {
		t.Errorf("Cost(1000) = %v, want 2ms", got)
	}
	if got := NullDiskModel.Cost(1 << 20); got != 0 {
		t.Errorf("null model Cost = %v, want 0", got)
	}
}

func TestDiskLatencyIsCharged(t *testing.T) {
	d := NewDisk(DiskModel{SeekLatency: 2 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := d.WriteAt("f", []byte{1}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The cost gate compensates sleep overshoot, so total wall time tracks
	// the modeled 10ms closely but may sit a hair under it.
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Errorf("5 writes with 2ms seeks took only %v", elapsed)
	}
	if busy := d.Stats().Busy; busy < 10*time.Millisecond {
		t.Errorf("Busy = %v, want >= 10ms", busy)
	}
}

func TestDiskHeadSerializesOperations(t *testing.T) {
	// Two goroutines issue 5 operations of 2 ms each; a single head must
	// take at least ~20 ms in total, not ~10 ms.
	d := NewDisk(DiskModel{SeekLatency: 2 * time.Millisecond})
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := d.WriteAt(fmt.Sprintf("f%d", g), []byte{1}, int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("10 serialized 2ms ops finished in %v; head is not serializing", elapsed)
	}
}

func TestDiskConcurrentAccessIsSafe(t *testing.T) {
	d := NewDisk(NullDiskModel)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", g%2)
			buf := []byte{byte(g)}
			for i := 0; i < 500; i++ {
				if err := d.WriteAt(name, buf, int64(i%64)); err != nil {
					t.Error(err)
					return
				}
				if err := d.ReadAt(name, buf, int64(i%64)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStripedFileGeometry(t *testing.T) {
	s := NewStripedFile("out", 100, 4)
	cases := []struct {
		block    int64
		owner    int
		localOff int64
	}{{0, 0, 0}, {1, 1, 0}, {3, 3, 0}, {4, 0, 100}, {5, 1, 100}, {11, 3, 200}}
	for _, c := range cases {
		if got := s.OwnerOfBlock(c.block); got != c.owner {
			t.Errorf("OwnerOfBlock(%d) = %d, want %d", c.block, got, c.owner)
		}
		if got := s.LocalOffsetOfBlock(c.block); got != c.localOff {
			t.Errorf("LocalOffsetOfBlock(%d) = %d, want %d", c.block, got, c.localOff)
		}
	}
	if got := s.BlockOfOffset(399); got != 3 {
		t.Errorf("BlockOfOffset(399) = %d, want 3", got)
	}
	if got := s.BlockOfOffset(400); got != 4 {
		t.Errorf("BlockOfOffset(400) = %d, want 4", got)
	}
}

func TestStripedFilePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStripedFile(0 block) did not panic")
		}
	}()
	NewStripedFile("x", 0, 4)
}

func TestExtentsSplitAtBlockBoundaries(t *testing.T) {
	s := NewStripedFile("out", 100, 4)
	ext := s.Extents(250, 300) // covers blocks 2,3,4,5 partially
	wantLens := []int{50, 100, 100, 50}
	wantDisks := []int{2, 3, 0, 1}
	if len(ext) != 4 {
		t.Fatalf("got %d extents, want 4: %+v", len(ext), ext)
	}
	off := int64(250)
	for i, e := range ext {
		if e.Length != wantLens[i] || e.Disk != wantDisks[i] || e.GlobalOff != off {
			t.Errorf("extent %d = %+v, want len %d disk %d gOff %d",
				i, e, wantLens[i], wantDisks[i], off)
		}
		off += int64(e.Length)
	}
}

func TestExtentsCoverRangeQuick(t *testing.T) {
	s := NewStripedFile("out", 64, 5)
	f := func(off uint16, length uint16) bool {
		ext := s.Extents(int64(off), int(length))
		covered := 0
		next := int64(off)
		for _, e := range ext {
			if e.GlobalOff != next || e.Length <= 0 || e.Length > s.BlockBytes {
				return false
			}
			if e.Disk != int(e.GlobalBlock%5) {
				return false
			}
			next += int64(e.Length)
			covered += e.Length
		}
		return covered == int(length)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStripedReadWriteRoundTrip(t *testing.T) {
	const P = 4
	s := NewStripedFile("out", 128, P)
	disks := make([]*Disk, P)
	for i := range disks {
		disks[i] = NewDisk(NullDiskModel)
	}
	rng := rand.New(rand.NewSource(3))
	want := make([]byte, 128*10+37) // non-block-aligned total
	rng.Read(want)

	// Write in odd-sized chunks at increasing offsets, each piece to the
	// disk Extents routes it to, then gather the whole file back the same
	// way.
	stripe := func(p []byte, off int64, do func(d *Disk, p []byte, off int64) error) {
		t.Helper()
		for _, e := range s.Extents(off, len(p)) {
			rel := e.GlobalOff - off
			if err := do(disks[e.Disk], p[rel:rel+int64(e.Length)], e.LocalOff); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(d *Disk, p []byte, off int64) error { return d.WriteAt(s.Name, p, off) }
	read := func(d *Disk, p []byte, off int64) error { return d.ReadAt(s.Name, p, off) }
	off := int64(0)
	for off < int64(len(want)) {
		n := 1 + rng.Intn(300)
		if off+int64(n) > int64(len(want)) {
			n = int(int64(len(want)) - off)
		}
		stripe(want[off:off+int64(n)], off, write)
		off += int64(n)
	}

	got := make([]byte, len(want))
	stripe(got, 0, read)
	if !bytes.Equal(got, want) {
		t.Error("striped round trip mismatch")
	}

	// Every disk holds its PDM share and nothing more.
	for i, d := range disks {
		if got, want := d.Size(s.Name), s.LocalBytes(int64(len(want)), i); got != want {
			t.Errorf("disk %d holds %d bytes, want %d", i, got, want)
		}
	}
}

func TestLocalBytesSumsToTotalQuick(t *testing.T) {
	s := NewStripedFile("out", 64, 7)
	f := func(total uint16) bool {
		var sum int64
		for d := 0; d < 7; d++ {
			sum += s.LocalBytes(int64(total), d)
		}
		return sum == int64(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalBytesExact(t *testing.T) {
	s := NewStripedFile("out", 100, 4)
	// 6 full blocks + 30-byte tail in block 6 (disk 2).
	total := int64(630)
	want := []int64{200, 200, 130, 100}
	for d := 0; d < 4; d++ {
		if got := s.LocalBytes(total, d); got != want[d] {
			t.Errorf("LocalBytes(disk %d) = %d, want %d", d, got, want[d])
		}
	}
}

func TestImportExportAreFreeAndFaithful(t *testing.T) {
	d := NewDisk(DiskModel{SeekLatency: time.Second}) // would be very slow if charged
	payload := []byte("setup data")
	start := time.Now()
	d.Import("in", payload)
	got := d.Export("in")
	if time.Since(start) > 100*time.Millisecond {
		t.Error("Import/Export charged simulated latency")
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Export = %q", got)
	}
	if d.Stats().TotalBytes() != 0 {
		t.Error("Import/Export moved the traffic counters")
	}
	if d.Export("missing") != nil {
		t.Error("Export of missing file is non-nil")
	}
}

func TestFaultInjection(t *testing.T) {
	d := NewDisk(NullDiskModel)
	if err := d.WriteAt("f", []byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("injected")
	d.SetFault(func(op, name string, off int64) error {
		if op == "read" && name == "f" {
			return boom
		}
		return nil
	})
	if err := d.ReadAt("f", make([]byte, 4), 0); err != boom {
		t.Errorf("read returned %v, want injected fault", err)
	}
	// Writes to f still succeed; reads of other files too.
	if err := d.WriteAt("f", []byte("x"), 0); err != nil {
		t.Errorf("write hit the read-only fault: %v", err)
	}
	if err := d.WriteAt("g", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt("g", make([]byte, 1), 0); err != nil {
		t.Errorf("read of other file failed: %v", err)
	}
	// Clearing the injector restores service.
	d.SetFault(nil)
	if err := d.ReadAt("f", make([]byte, 4), 0); err != nil {
		t.Errorf("read after clearing fault failed: %v", err)
	}
}

func TestFaultDoesNotCount(t *testing.T) {
	d := NewDisk(NullDiskModel)
	d.SetFault(func(op, name string, off int64) error { return fmt.Errorf("no") })
	d.ReadAt("f", make([]byte, 1), 0)
	d.WriteAt("f", make([]byte, 1), 0)
	if d.Stats().TotalBytes() != 0 || d.Stats().ReadOps != 0 || d.Stats().WriteOps != 0 {
		t.Errorf("failed operations moved the counters: %+v", d.Stats())
	}
}

func TestCostGateChargesAtModeledRate(t *testing.T) {
	// 100 charges of 200us must take ~20ms of wall time despite each being
	// far below the scheduler's sleep resolution — the debt compensation.
	var g CostGate
	start := time.Now()
	for i := 0; i < 100; i++ {
		g.Charge(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond {
		t.Errorf("100x200us charges took only %v", elapsed)
	}
	if elapsed > 60*time.Millisecond {
		t.Errorf("100x200us charges took %v; overshoot not compensated", elapsed)
	}
}

func TestCostGateZeroAndNegativeFree(t *testing.T) {
	var g CostGate
	start := time.Now()
	for i := 0; i < 1000; i++ {
		g.Charge(0)
		g.Charge(-time.Second)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("zero/negative charges cost wall time")
	}
}

func TestCostGateSerializesUsers(t *testing.T) {
	var g CostGate
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Charge(5 * time.Millisecond)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("4x5ms concurrent charges finished in %v; gate is not serializing", elapsed)
	}
}
