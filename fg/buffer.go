package fg

import (
	"fmt"

	"github.com/fg-go/fg/internal/bufpool"
)

// storage is the free list every pipeline buffer's Data and Aux storage
// comes from and, after a clean Network.Run, returns to — so the next
// network of a given shape, in this pass, the next pass or the next job,
// starts with the buffers this one finished with instead of allocating and
// zeroing its own. A buffer of a network that failed, was cancelled or was
// aborted never comes back: see Network.releaseBuffers. The list holds at
// most the buffers that were out at once, and frees a buffer size nobody
// has asked for in a minute, so it costs an idle process nothing.
var storage bufpool.Pool

// A Buffer is the unit of data that flows through a pipeline. Its capacity
// is fixed at the pipeline's buffer size; Data[:N] holds the bytes currently
// valid. Buffers correspond to the blocks in which out-of-core programs
// move data, so the buffer size typically equals the block size for disk
// I/O or communication.
//
// Every buffer is tied to the pipeline that injected it and is recycled to
// that pipeline's source by its sink; buffers never jump between pipelines.
type Buffer struct {
	// Data is the buffer's storage. Stages may read and write Data freely
	// but must not reslice it beyond its original capacity.
	Data []byte
	// N is the number of valid bytes at the front of Data. The source
	// resets N to 0 each round; stages producing data set it.
	N int
	// Round is the round in which the source emitted this buffer: 0 for the
	// pipeline's first buffer, 1 for the second, and so on. Stages commonly
	// use it to address the block of the underlying file this buffer
	// carries.
	Round int
	// Meta is free for stages to attach per-buffer information that
	// downstream stages of the same pipeline need.
	Meta any

	pipe    *Pipeline
	aux     []byte
	caboose bool
	// mem remembers the slices taken from storage for Data and Aux, so what
	// goes back is what was taken, whatever a stage has since assigned to
	// the exported Data field.
	mem [2][]byte
}

// newBuffer returns a buffer of pipeline p with recycled storage. Like any
// buffer on its second round, it may hold stale bytes: stages set N and
// write before they read.
func newBuffer(p *Pipeline) *Buffer {
	b := &Buffer{pipe: p}
	b.mem[0] = storage.Get(p.bufBytes)
	b.Data = b.mem[0]
	return b
}

// release ends the buffer's use of its storage, handing it back to the
// free list if recycle is set and to the garbage collector otherwise.
func (b *Buffer) release(recycle bool) {
	if recycle {
		storage.Put(b.mem[0])
		storage.Put(b.mem[1])
	}
	b.Data, b.aux, b.Meta, b.mem = nil, nil, nil, [2][]byte{}
}

// Pipeline returns the pipeline this buffer belongs to.
func (b *Buffer) Pipeline() *Pipeline { return b.pipe }

// Cap returns the buffer's fixed capacity in bytes.
func (b *Buffer) Cap() int { return cap(b.Data) }

// Bytes returns the valid prefix Data[:N].
func (b *Buffer) Bytes() []byte { return b.Data[:b.N] }

// Aux returns the buffer's auxiliary storage, a second region of the same
// capacity, taken from the free list on first use (so, like Data, it may
// hold stale bytes) and retained across rounds. FG provides
// auxiliary buffers so that stages such as dsort's permute can rearrange
// records out of place; pair it with SwapAux to publish the rearranged
// contents.
func (b *Buffer) Aux() []byte {
	if b.aux == nil {
		b.mem[1] = storage.Get(cap(b.Data))
		b.aux = b.mem[1]
	}
	return b.aux
}

// SwapAux exchanges Data with the auxiliary storage. N is preserved: the
// first N bytes of the former auxiliary region become the buffer's valid
// contents.
func (b *Buffer) SwapAux() {
	aux := b.Aux()
	b.Data, b.aux = aux[:cap(aux)], b.Data
}

// reset prepares a recycled buffer for a new round.
func (b *Buffer) reset(round int) {
	b.Data = b.Data[:cap(b.Data)]
	b.N = 0
	b.Round = round
	b.Meta = nil
}

func (b *Buffer) String() string {
	if b.caboose {
		return fmt.Sprintf("caboose(%s)", b.pipe.name)
	}
	return fmt.Sprintf("buffer(%s, round %d, %d/%d bytes)", b.pipe.name, b.Round, b.N, cap(b.Data))
}
