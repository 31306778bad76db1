package pdm

import "fmt"

// A StripedFile is a single logical file laid out across the disks of a
// cluster in Parallel Disk Model order: the file is divided into fixed-size
// blocks, and block b resides on disk b mod P at local block index b div P.
// Both sorting programs in the paper produce their output in this order.
//
// A StripedFile value describes the layout; it does not perform I/O itself.
// Nodes read and write their local portions through their own *Disk using
// the offsets this type computes, and route remote portions over the
// interconnect — exactly the distinction the sorting programs must manage.
type StripedFile struct {
	// Name of the per-disk backing file holding this striped file's blocks.
	Name string
	// BlockBytes is the stripe unit.
	BlockBytes int
	// Disks is P, the number of disks in the cluster.
	Disks int
}

// NewStripedFile describes a striped file with the given block size over P
// disks. It panics on non-positive parameters.
func NewStripedFile(name string, blockBytes, disks int) StripedFile {
	if blockBytes <= 0 || disks <= 0 {
		panic(fmt.Sprintf("pdm: invalid striped file geometry: block %d, disks %d", blockBytes, disks))
	}
	return StripedFile{Name: name, BlockBytes: blockBytes, Disks: disks}
}

// OwnerOfBlock returns the disk holding global block b.
func (s StripedFile) OwnerOfBlock(b int64) int {
	return int(b % int64(s.Disks))
}

// LocalOffsetOfBlock returns the byte offset, within the owning disk's
// backing file, of global block b.
func (s StripedFile) LocalOffsetOfBlock(b int64) int64 {
	return b / int64(s.Disks) * int64(s.BlockBytes)
}

// BlockOfOffset returns the global block containing global byte offset off.
func (s StripedFile) BlockOfOffset(off int64) int64 {
	return off / int64(s.BlockBytes)
}

// An Extent is a contiguous global byte range that lives entirely on one
// disk, expressed in both global and disk-local coordinates.
type Extent struct {
	Disk        int   // owning disk
	GlobalOff   int64 // start offset in the logical file
	LocalOff    int64 // start offset in the disk's backing file
	Length      int   // bytes
	GlobalBlock int64 // global block index containing this extent
}

// Extents splits the global byte range [off, off+length) into per-disk
// extents in increasing global order. Callers use it to route writes of
// merged output to the disks that own each piece.
func (s StripedFile) Extents(off int64, length int) []Extent {
	if off < 0 || length < 0 {
		panic(fmt.Sprintf("pdm: invalid extent range off=%d length=%d", off, length))
	}
	var out []Extent
	bb := int64(s.BlockBytes)
	for length > 0 {
		b := off / bb
		within := off % bb
		n := int(bb - within)
		if n > length {
			n = length
		}
		out = append(out, Extent{
			Disk:        s.OwnerOfBlock(b),
			GlobalOff:   off,
			LocalOff:    s.LocalOffsetOfBlock(b) + within,
			Length:      n,
			GlobalBlock: b,
		})
		off += int64(n)
		length -= n
	}
	return out
}

// LocalBytes returns how many bytes of a striped file of the given total
// size reside on the given disk.
func (s StripedFile) LocalBytes(totalBytes int64, disk int) int64 {
	bb := int64(s.BlockBytes)
	fullBlocks := totalBytes / bb
	tail := totalBytes % bb
	p := int64(s.Disks)
	n := fullBlocks / p * bb
	// Blocks are dealt round-robin from disk 0, so disks 0..rem-1 hold one
	// extra full block.
	if rem := fullBlocks % p; int64(disk) < rem {
		n += bb
	}
	if tail > 0 && s.OwnerOfBlock(fullBlocks) == disk {
		n += tail
	}
	return n
}
