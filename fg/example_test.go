package fg_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/mergetree"
	"github.com/fg-go/fg/pdm"
)

// A minimal linear pipeline: three stages, three buffers, five rounds. The
// produce stage numbers each buffer, square computes, and report prints —
// all three overlap at runtime, but buffers arrive in round order.
func Example() {
	nw := fg.NewNetwork("example")
	p := nw.AddPipeline("main", fg.Buffers(3), fg.BufferBytes(8), fg.Rounds(5))

	p.AddStage("produce", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.Data[0] = byte(b.Round)
		b.N = 1
		return nil
	})
	p.AddStage("square", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.Data[0] = b.Data[0] * b.Data[0]
		return nil
	})
	p.AddStage("report", func(ctx *fg.Ctx, b *fg.Buffer) error {
		fmt.Println(b.Data[0])
		return nil
	})

	if err := nw.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// 0
	// 1
	// 4
	// 9
	// 16
}

// A free stage accepts and conveys at its own pace: here it packs two input
// rounds into each output it forwards, halving the downstream rate — the
// kind of rate mismatch FG's free stages exist for.
func Example_freeStage() {
	nw := fg.NewNetwork("pack")
	p := nw.AddPipeline("main", fg.Buffers(3), fg.BufferBytes(8), fg.Rounds(6))
	p.AddStage("number", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.Data[0] = byte(b.Round)
		b.N = 1
		return nil
	})
	p.AddFreeStage("pair", func(ctx *fg.Ctx) error {
		for {
			first, ok := ctx.Accept()
			if !ok {
				return nil
			}
			second, ok := ctx.Accept()
			if !ok {
				ctx.Convey(first) // odd one out
				return nil
			}
			first.Data[1] = second.Data[0]
			first.N = 2
			second.N = 0 // spent; set before conveying — never touch a buffer after Convey
			ctx.Convey(first)
			ctx.Convey(second)
		}
	})
	p.AddStage("print", func(ctx *fg.Ctx, b *fg.Buffer) error {
		if b.N == 2 {
			fmt.Println(b.Data[0], b.Data[1])
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// 0 1
	// 2 3
	// 4 5
}

// A fork-join region routes each buffer down one branch; the pipeline
// continues after the join. Odd rounds take the heavy branch, even rounds
// the light one. Stats lists the fork, both branch stages and the join like
// any other stage, each with the rounds it saw.
func ExamplePipeline_AddFork() {
	nw := fg.NewNetwork("forked")
	p := nw.AddPipeline("main", fg.Buffers(3), fg.BufferBytes(8), fg.Rounds(24))
	p.AddStage("produce", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.Data[0] = byte(b.Round)
		b.N = 1
		return nil
	})
	fork := p.AddFork("classify", 2, func(ctx *fg.Ctx, b *fg.Buffer) (int, error) {
		return b.Round % 2, nil
	})
	fork.Branch(0).AddStage("light", func(ctx *fg.Ctx, b *fg.Buffer) error { return nil })
	fork.Branch(1).AddStage("heavy", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.Data[0] += 100
		return nil
	})
	fork.Join()
	total := 0
	p.AddStage("finish", func(ctx *fg.Ctx, b *fg.Buffer) error {
		total += int(b.Data[0])
		return nil
	})
	if err := nw.Run(); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println("sum:", total) // 0 + 1 + ... + 23, plus 100 for each of the 12 odd rounds
	for _, s := range nw.Stats().Stages {
		fmt.Println(s.Stage, s.Rounds)
	}
	// Output:
	// sum: 1476
	// produce 24
	// classify 24
	// light 12
	// heavy 12
	// classify.join 24
	// finish 24
}

// Figures 1-2: one linear pipeline copies a file from one disk to another
// block by block. The read, compute and write stages each run in their own
// goroutine, so while one block is being uppercased the next is being read
// and the previous one written. A pool of three buffers circulates from the
// sink back to the source: memory stays fixed however long the file is.
func Example_linearPipeline() {
	const blockBytes, blocks = 4, 8
	// Two disks, input on one and output on the other, so a read and a
	// write can be in flight at once. Zero cost: the example shows what
	// moves, not how fast.
	in, out := pdm.NewDisk(pdm.NullDiskModel), pdm.NewDisk(pdm.NullDiskModel)
	in.Import("in", []byte("abcdefghijklmnopqrstuvwxyzabcdef"))

	nw := fg.NewNetwork("copy")
	p := nw.AddPipeline("main", fg.Buffers(3), fg.BufferBytes(blockBytes), fg.Rounds(blocks))
	p.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.N = blockBytes
		return in.ReadAt("in", b.Data[:b.N], int64(b.Round*blockBytes))
	})
	p.AddStage("compute", func(ctx *fg.Ctx, b *fg.Buffer) error {
		copy(b.Data, bytes.ToUpper(b.Bytes()))
		return nil
	})
	p.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		return out.WriteAt("out", b.Bytes(), int64(b.Round*blockBytes))
	})
	if err := nw.Run(); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Printf("%s\n", out.Export("out"))
	fmt.Printf("read %d B, wrote %d B\n", in.Stats().BytesRead, out.Stats().BytesWritten)
	// Output:
	// ABCDEFGHIJKLMNOPQRSTUVWXYZABCDEF
	// read 32 B, wrote 32 B
}

// Figure 4: disjoint pipelines for unbalanced communication. Two nodes
// redistribute values so that node 0 ends up with the multiples of 4 and
// node 1 with the rest: node 0 ships three quarters of its input and node 1
// one quarter. Each node runs a send pipeline (acquire -> route -> send)
// and a separate receive pipeline (receive -> save) with its own pool, so
// the sending and receiving paces never have to agree.
func Example_disjointPipelines() {
	const blocks, valsPerBlock = 4, 64
	mine := func(rank int, v uint64) bool { return (v%4 == 0) == (rank == 0) }
	received := make([]int, 2)
	c := cluster.New(cluster.Config{Nodes: 2})
	defer c.Close()
	err := c.Run(func(n *cluster.Node) error {
		comm, other := n.Comm("exchange"), 1-n.Rank()
		nw := fg.NewNetwork(fmt.Sprintf("disjoint@%d", n.Rank()))
		send := nw.AddPipeline("send", fg.Buffers(3), fg.BufferBytes(8*valsPerBlock), fg.Rounds(blocks))
		send.AddStage("acquire", func(ctx *fg.Ctx, b *fg.Buffer) error {
			for i := 0; i < valsPerBlock; i++ {
				binary.BigEndian.PutUint64(b.Data[8*i:], uint64((n.Rank()*blocks+b.Round)*valsPerBlock+i))
			}
			b.N = 8 * valsPerBlock
			return nil
		})
		send.AddStage("route", func(ctx *fg.Ctx, b *fg.Buffer) error {
			ship := b.Aux()[:0] // the values bound for the other node
			for off := 0; off < b.N; off += 8 {
				if !mine(n.Rank(), binary.BigEndian.Uint64(b.Data[off:])) {
					ship = append(ship, b.Data[off:off+8]...)
				}
			}
			b.SwapAux()
			b.N = len(ship)
			return nil
		})
		send.AddStage("send", func(ctx *fg.Ctx, b *fg.Buffer) error {
			comm.SendAny(other, 1, b.Bytes())
			if b.Round == blocks-1 {
				comm.SendAny(other, 1, nil) // end of data
			}
			return nil
		})

		recv := nw.AddPipeline("receive", fg.Buffers(2), fg.BufferBytes(8*valsPerBlock), fg.Unlimited())
		recv.AddFreeStage("receive", func(ctx *fg.Ctx) error {
			for {
				_, msg := comm.RecvAny(1)
				if len(msg) == 0 {
					return nil
				}
				b, ok := ctx.Accept()
				if !ok {
					return errors.New("receive pipeline dried up")
				}
				b.N = copy(b.Data, msg)
				cluster.Release(msg)
				ctx.Convey(b)
			}
		})
		recv.AddStage("save", func(ctx *fg.Ctx, b *fg.Buffer) error {
			for off := 0; off < b.N; off += 8 {
				if v := binary.BigEndian.Uint64(b.Data[off:]); !mine(n.Rank(), v) {
					return fmt.Errorf("node %d received %d, which is not its own", n.Rank(), v)
				}
			}
			received[n.Rank()] += b.N / 8
			return n.Disk.WriteAt("incoming", b.Bytes(), int64(8*received[n.Rank()]-b.N))
		})
		return nw.Run()
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	fmt.Printf("node 0 received %d values; node 1 received %d values\n", received[0], received[1])
	// Output:
	// node 0 received 64 values; node 1 received 192 values
}

// Figure 5: virtual pipelines intersecting at a merge stage. Five sorted
// runs on a disk are each read by a vertical pipeline in buffers of two
// values; all five meet at one merge stage, which fills the larger buffers
// of a horizontal pipeline. The verticals form a virtual group: however
// many runs there are, their read stages share one goroutine, one pool and
// one queue, and Stats marks each of them Virtual.
func ExampleNetwork_AddVirtualGroup() {
	const k, perRun, vBufVals, hBufVals = 5, 6, 2, 15
	disk := pdm.NewDisk(pdm.NullDiskModel)
	for i := 0; i < k; i++ {
		// Run i holds i, i+k, i+2k, ...: the merged output is 0..k*perRun-1.
		run := make([]byte, 8*perRun)
		for j := 0; j < perRun; j++ {
			binary.BigEndian.PutUint64(run[8*j:], uint64(j*k+i))
		}
		disk.Import(fmt.Sprintf("run.%d", i), run)
	}

	nw := fg.NewNetwork("merge")
	vg := nw.AddVirtualGroup("verticals")
	verticals := make([]*fg.Pipeline, k)
	for i := range verticals {
		verticals[i] = vg.AddPipeline(fmt.Sprintf("run%d", i),
			fg.Buffers(2), fg.BufferBytes(8*vBufVals), fg.Rounds(perRun/vBufVals))
		verticals[i].AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
			b.N = 8 * vBufVals
			return disk.ReadAt(fmt.Sprintf("run.%d", i), b.Data[:b.N], int64(b.Round*b.N))
		})
	}
	horiz := nw.AddPipeline("horizontal", fg.Buffers(2), fg.BufferBytes(8*hBufVals), fg.Unlimited())
	merge := fg.NewStage("merge", func(ctx *fg.Ctx) error {
		heads, next := make([]*fg.Buffer, k), make([]int, k) // next: byte offset in each head
		tree := mergetree.New(k)
		advance := func(i int) {
			if heads[i] != nil {
				ctx.Convey(heads[i])
			}
			var ok bool
			if heads[i], ok = ctx.AcceptFrom(verticals[i]); ok {
				next[i] = 0
				tree.Set(i, binary.BigEndian.Uint64(heads[i].Data))
			} else {
				tree.Close(i)
			}
		}
		for i := range verticals {
			advance(i)
		}
		ob, ok := ctx.AcceptFrom(horiz)
		for i, v, live := tree.Min(); live && ok; i, v, live = tree.Min() {
			binary.BigEndian.PutUint64(ob.Data[ob.N:], v)
			if ob.N += 8; ob.N == ob.Cap() {
				ctx.Convey(ob)
				ob, ok = ctx.AcceptFrom(horiz)
			}
			if next[i] += 8; next[i] == heads[i].N {
				advance(i)
			} else {
				tree.Set(i, binary.BigEndian.Uint64(heads[i].Data[next[i]:]))
			}
		}
		if !ok {
			return errors.New("horizontal pipeline dried up")
		}
		if ob.N > 0 {
			ctx.Convey(ob)
		}
		return nil
	})
	for _, v := range verticals {
		v.Add(merge)
	}
	horiz.Add(merge)
	horiz.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		vals := make([]uint64, b.N/8)
		for j := range vals {
			vals[j] = binary.BigEndian.Uint64(b.Data[8*j:])
		}
		fmt.Println(vals)
		return nil
	})
	if err := nw.Run(); err != nil {
		fmt.Println("error:", err)
	}
	virtual := 0
	for _, s := range nw.Stats().Stages {
		if s.Stage == "read" && s.Virtual {
			virtual++
		}
	}
	fmt.Println("virtual read stages:", virtual)
	// Output:
	// [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14]
	// [15 16 17 18 19 20 21 22 23 24 25 26 27 28 29]
	// virtual read stages: 5
}
