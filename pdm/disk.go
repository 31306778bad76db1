// Package pdm provides the storage substrate for the FG sorting programs: a
// simulated per-node disk with a calibrated latency model, a simple named
// file layer on top of it, and a Parallel Disk Model (PDM) striped file that
// spans all the disks of a cluster (block b lives on disk b mod P, as in
// Vitter and Shriver's model).
//
// The paper ran on one Ultra-320 SCSI disk per node, accessed through the C
// stdio interface. What FG cares about is that disk operations have latency
// that pipelining can hide, and that a node's single disk serializes its
// operations. The simulated disk preserves exactly that: each operation
// costs a fixed positional (seek) latency plus a bandwidth-proportional
// transfer time, operations on one disk are serialized as by a single head,
// and the calling goroutine sleeps for the simulated duration — so, like a
// pthread blocked in read(2), it yields the processor to other pipeline
// stages. Byte counters record the I/O volume per disk, which the
// experiment harness uses to reproduce the paper's claim that csort performs
// roughly 50% more I/O than dsort. Files live in storage recycled across
// disks and jobs: it returns to one free list when a file is removed or
// replaced or its disk closed.
package pdm

import (
	"fmt"
	"sync"
	"time"

	"github.com/fg-go/fg/internal/bufpool"
)

// DiskModel gives the simulated cost of disk operations.
type DiskModel struct {
	// SeekLatency is charged once per operation, modeling positioning time.
	SeekLatency time.Duration
	// BytesPerSecond is the sequential transfer rate; zero means transfers
	// are free and only seek latency is charged.
	BytesPerSecond float64
}

// Cost returns the simulated duration of one operation moving n bytes.
func (m DiskModel) Cost(n int) time.Duration {
	d := m.SeekLatency
	if m.BytesPerSecond > 0 {
		d += time.Duration(float64(n) / m.BytesPerSecond * float64(time.Second))
	}
	return d
}

// NullDiskModel charges nothing; useful in unit tests.
var NullDiskModel = DiskModel{}

// DefaultDiskModel approximates a single 2000s-era SCSI disk, scaled for
// laptop-sized experiments: 0.2 ms positioning, 100 MB/s sequential.
var DefaultDiskModel = DiskModel{
	SeekLatency:    200 * time.Microsecond,
	BytesPerSecond: 100e6,
}

// Counters accumulates traffic statistics for one disk.
type Counters struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	// Busy is the total simulated time the disk head was occupied.
	Busy time.Duration
}

// Add merges another set of counters into c.
func (c *Counters) Add(o Counters) {
	c.ReadOps += o.ReadOps
	c.WriteOps += o.WriteOps
	c.BytesRead += o.BytesRead
	c.BytesWritten += o.BytesWritten
	c.Busy += o.Busy
}

// TotalBytes returns bytes read plus bytes written.
func (c Counters) TotalBytes() int64 { return c.BytesRead + c.BytesWritten }

// A Disk is a simulated local disk holding named files. All methods are safe
// for concurrent use; operations are serialized per disk, as by one head.
type Disk struct {
	model DiskModel

	mu    sync.Mutex // guards the fields below
	files map[string]*fileData
	stats Counters
	fault func(op, name string, off int64) error

	head CostGate // serializes the simulated busy time of the single head
}

// extentBytes is the unit in which a file's storage grows. A write that
// extends a file allocates the extents it touches and nothing else: bytes
// already stored are never copied again and no capacity is allocated ahead
// of the data, at the price of an unused tail in each file's last extent.
const extentBytes = 64 << 10

// zeroExtent backs the holes of sparse files for readers.
var zeroExtent [extentBytes]byte

// extentPool holds at most the extents out at once (one job's files).
var extentPool bufpool.Pool

// fileData is one file: size bytes held in extents of extentBytes each. A
// nil extent is a hole that reads as zeros. The first borrowed extents are
// an Import's slices of the caller's data, never recycled; only the last may
// be short, and a write that reaches past it replaces it with the disk's own.
type fileData struct {
	extents  [][]byte
	borrowed int
	size     int64
}

// write stores p at offset off, growing the file as needed.
func (f *fileData) write(p []byte, off int64) {
	if end := off + int64(len(p)); end > f.size {
		f.size = end
		if n := int((end + extentBytes - 1) / extentBytes); n > len(f.extents) {
			f.extents = append(f.extents, make([][]byte, n-len(f.extents))...)
		}
	}
	for len(p) > 0 {
		i, within := int(off/extentBytes), int(off%extentBytes)
		e := f.extents[i]
		if end := min(within+len(p), extentBytes); end > len(e) {
			// Recycled: zero what neither e nor p covers, as make did.
			wide := extentPool.Get(extentBytes)
			copy(wide, e)
			clear(wide[len(e):max(len(e), within)])
			clear(wide[end:])
			e, f.extents[i], f.borrowed = wide, wide, min(f.borrowed, i)
		}
		n := copy(e[within:], p)
		p, off = p[n:], off+int64(n)
	}
}

// each calls fn with the successive pieces of [off, off+n), which must lie
// within the file: slices of the file's own storage, or of zeroExtent where
// nothing is stored (a hole, or past the end of a short imported extent).
func (f *fileData) each(off int64, n int, fn func(piece []byte)) {
	for n > 0 {
		i, within := int(off/extentBytes), int(off%extentBytes)
		src := zeroExtent[:]
		if e := f.extents[i]; within < len(e) {
			src = e
		}
		piece := src[within:min(len(src), within+n)]
		fn(piece)
		off, n = off+int64(len(piece)), n-len(piece)
	}
}

// read fills p from offset off. The range must lie within the file.
func (f *fileData) read(p []byte, off int64) {
	f.each(off, len(p), func(piece []byte) { p = p[copy(p, piece):] })
}

// NewDisk returns an empty disk with the given cost model.
func NewDisk(model DiskModel) *Disk {
	return &Disk{model: model, files: make(map[string]*fileData)}
}

// Model returns the disk's cost model.
func (d *Disk) Model() DiskModel { return d.model }

// Stats returns a snapshot of the disk's traffic counters.
func (d *Disk) Stats() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the traffic counters, e.g. between experiment passes.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Counters{}
}

// Remove deletes a file if it exists.
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drop(name)
}

// drop deletes the named file and gives its own extents back; d.mu is held.
func (d *Disk) drop(name string) {
	if f := d.files[name]; f != nil {
		for _, e := range f.extents[f.borrowed:] {
			extentPool.Put(e)
		}
		delete(d.files, name)
	}
}

// Close removes every file, giving the disk's own storage back for reuse.
func (d *Disk) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name := range d.files {
		d.drop(name)
	}
}

// Size returns the current size of a file, or 0 if it does not exist.
func (d *Disk) Size(name string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		return f.size
	}
	return 0
}

// WriteAt writes p into the named file at offset off, creating or growing
// the file as needed. It blocks for the simulated duration of the write.
func (d *Disk) WriteAt(name string, p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pdm: negative offset %d writing %q", off, name)
	}
	if err := d.consultFault("write", name, off); err != nil {
		return err
	}
	d.mu.Lock()
	f := d.files[name]
	if f == nil {
		f = &fileData{}
		d.files[name] = f
	}
	f.write(p, off)
	cost := d.model.Cost(len(p))
	d.stats.WriteOps++
	d.stats.BytesWritten += int64(len(p))
	d.stats.Busy += cost
	d.mu.Unlock()

	// The head is modeled as busy for the whole operation; holding the lock
	// while sleeping would also block same-disk readers, which is correct
	// for a single head, but it would additionally serialize metadata
	// queries. Sleep after releasing the lock and rely on the head mutex.
	d.occupyHead(cost)
	return nil
}

// ReadAt fills p from the named file at offset off. The file must contain
// the full range. It blocks for the simulated duration of the read.
func (d *Disk) ReadAt(name string, p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pdm: negative offset %d reading %q", off, name)
	}
	if err := d.consultFault("read", name, off); err != nil {
		return err
	}
	d.mu.Lock()
	f, err := d.find(name, off, len(p))
	if err != nil {
		d.mu.Unlock()
		return err
	}
	f.read(p, off)
	cost := d.model.Cost(len(p))
	d.stats.ReadOps++
	d.stats.BytesRead += int64(len(p))
	d.stats.Busy += cost
	d.mu.Unlock()

	d.occupyHead(cost)
	return nil
}

// find returns the named file, provided [off, off+n) lies within it. Called
// with d.mu held.
func (d *Disk) find(name string, off int64, n int) (*fileData, error) {
	f := d.files[name]
	if f == nil {
		return nil, fmt.Errorf("pdm: file %q does not exist", name)
	}
	if off+int64(n) > f.size {
		return nil, fmt.Errorf("pdm: read [%d,%d) beyond end of %q (size %d)",
			off, off+int64(n), name, f.size)
	}
	return f, nil
}

// occupyHead charges the simulated duration of an operation through the
// head's cost gate, which serializes concurrent operations so that two
// stages hitting the same disk cannot overlap their simulated transfer
// times, and which compensates for scheduler sleep overshoot.
func (d *Disk) occupyHead(cost time.Duration) {
	d.head.Charge(cost)
}

// Import makes data the named file's full contents without charging any
// simulated cost, for checkpoint restores and tests. The disk uses data in
// place rather than copying it: the caller must not modify it afterwards,
// and later writes to the file land in it. data is never recycled, so the
// caller may still read it after the file is removed or the disk closed.
func (d *Disk) Import(name string, data []byte) {
	k := (len(data) + extentBytes - 1) / extentBytes
	f := &fileData{extents: make([][]byte, 0, k), borrowed: k, size: int64(len(data))}
	for len(data) > 0 {
		n := min(len(data), extentBytes)
		f.extents = append(f.extents, data[:n:n])
		data = data[n:]
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drop(name)
	d.files[name] = f
}

// Fill makes the named file size bytes of recycled storage, replacing any
// file so named, and hands fill its extents in order, the last cut to size;
// fill must write every byte. Like Import it charges no cost (setup only).
func (d *Disk) Fill(name string, size int64, fill func(extent []byte)) {
	f := &fileData{extents: make([][]byte, (size+extentBytes-1)/extentBytes), size: size}
	for i := range f.extents {
		e := extentPool.Get(extentBytes)
		f.extents[i], e = e, e[:min(extentBytes, size-int64(i)*extentBytes)]
		fill(e)
		clear(e[len(e):cap(e)]) // the file may grow into the tail
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drop(name)
	d.files[name] = f
}

// Export returns a copy of the named file's contents without charging any
// simulated cost. It exists for checkpoints and small-scale verification —
// neither is part of the measured computation; a verifier of large files
// reads them in place with View instead. Export of a missing file returns
// nil.
func (d *Disk) Export(name string) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		return nil
	}
	out := make([]byte, f.size)
	f.read(out, 0)
	return out
}

// View returns the bytes [off, off+n) of the named file as a sequence of
// read-only slices of the disk's own storage, in file order, without
// copying them and without charging any simulated cost. It exists for
// verification: a checker walks a sort's output where it lies. The caller
// must not write through the slices, which are valid while nothing writes
// the range and until the file is removed or the disk closed (check.Output
// finishes before Close). A range not wholly inside the file fails like
// the corresponding ReadAt.
func (d *Disk) View(name string, off int64, n int) ([][]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("pdm: invalid range off=%d n=%d viewing %q", off, n, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.find(name, off, n)
	if err != nil {
		return nil, err
	}
	pieces := make([][]byte, 0, n/extentBytes+2)
	f.each(off, n, func(piece []byte) { pieces = append(pieces, piece[:len(piece):len(piece)]) })
	return pieces, nil
}

// SetFault installs a fault injector: before every read or write, fn is
// called with the operation ("read" or "write"), the file name, and the
// offset; a non-nil return fails the operation with that error. Passing nil
// clears the injector. Tests use it to prove that I/O errors surface
// through pipelines instead of hanging them.
func (d *Disk) SetFault(fn func(op, name string, off int64) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = fn
}

// consultFault consults the injector. It is called outside d.mu so an
// injector that adds latency stalls only its own operation, not metadata
// queries on the same disk.
func (d *Disk) consultFault(op, name string, off int64) error {
	d.mu.Lock()
	fn := d.fault
	d.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(op, name, off)
}
