// Mergestreams: multiple intersecting pipelines and virtual stages, the
// structure of Figure 5.
//
// Many small sorted runs live on a simulated disk. One vertical pipeline
// per run reads it in small buffers; all vertical pipelines intersect at a
// single merge stage, which drains them into large buffers of a horizontal
// pipeline whose write stage stores the merged output. The vertical
// pipelines are members of a virtual group: however many runs there are,
// their read stages share one goroutine and one queue — FG's answer to
// "hundreds of pipelines would need thousands of threads".
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/mergetree"
	"github.com/fg-go/fg/pdm"
)

func main() {
	var (
		runs    = flag.Int("runs", 100, "number of sorted runs to merge")
		perRun  = flag.Int("per-run", 4096, "values per run")
		vBufVal = flag.Int("vbuf", 256, "values per vertical buffer (small)")
		hBufVal = flag.Int("hbuf", 8192, "values per horizontal buffer (large)")
	)
	flag.Parse()

	disk := pdm.NewDisk(pdm.DiskModel{SeekLatency: 100 * time.Microsecond, BytesPerSecond: 200e6})

	// Lay down k sorted runs: run i holds i, i+k, i+2k, ... so the merged
	// output is exactly 0..k*perRun-1 and trivially checkable.
	k := *runs
	for i := 0; i < k; i++ {
		buf := make([]byte, 8**perRun) // Import takes ownership: one slice per file
		for j := 0; j < *perRun; j++ {
			binary.BigEndian.PutUint64(buf[8*j:], uint64(j*k+i))
		}
		disk.Import(fmt.Sprintf("run.%d", i), buf)
	}

	before := runtime.NumGoroutine()
	nw := fg.NewNetwork("mergestreams")

	vg := nw.AddVirtualGroup("verticals")
	verticals := make([]*fg.Pipeline, k)
	vBufBytes := 8 * *vBufVal
	for i := 0; i < k; i++ {
		i := i
		rounds := (*perRun + *vBufVal - 1) / *vBufVal
		verticals[i] = vg.AddPipeline(fmt.Sprintf("run%d", i),
			fg.Buffers(2), fg.BufferBytes(vBufBytes), fg.Rounds(rounds))
		verticals[i].AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
			off := b.Round * vBufBytes
			cnt := vBufBytes
			if off+cnt > 8**perRun {
				cnt = 8**perRun - off
			}
			b.N = cnt
			return disk.ReadAt(fmt.Sprintf("run.%d", i), b.Data[:cnt], int64(off))
		})
	}

	horiz := nw.AddPipeline("horizontal",
		fg.Buffers(3), fg.BufferBytes(8**hBufVal), fg.Unlimited())

	merge := fg.NewStage("merge", func(ctx *fg.Ctx) error {
		heads := make([]*fg.Buffer, k)
		idx := make([]int, k)
		tree := mergetree.New(k)
		advance := func(i int) {
			if heads[i] != nil {
				ctx.Convey(heads[i])
			}
			if b, ok := ctx.AcceptFrom(verticals[i]); ok {
				heads[i], idx[i] = b, 0
				tree.Set(i, binary.BigEndian.Uint64(b.Data))
			} else {
				heads[i] = nil
				tree.Close(i)
			}
		}
		for i := range verticals {
			advance(i)
		}
		ob, ok := ctx.AcceptFrom(horiz)
		if !ok {
			return fmt.Errorf("no horizontal buffers")
		}
		for {
			i, v, live := tree.Min()
			if !live {
				break
			}
			binary.BigEndian.PutUint64(ob.Data[ob.N:], v)
			ob.N += 8
			if ob.N == ob.Cap() {
				ctx.Convey(ob)
				if ob, ok = ctx.AcceptFrom(horiz); !ok {
					return fmt.Errorf("horizontal pipeline dried up")
				}
			}
			idx[i]++
			if 8*idx[i] == heads[i].N {
				advance(i)
			} else {
				tree.Set(i, binary.BigEndian.Uint64(heads[i].Data[8*idx[i]:]))
			}
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

	written := 0
	during := 0
	horiz.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		during = runtime.NumGoroutine() // sample while the network is live
		if err := disk.WriteAt("merged", b.Bytes(), int64(written)); err != nil {
			return err
		}
		written += b.N
		return nil
	})
	start := time.Now()
	if err := nw.Run(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	// Verify the merged output is 0..k*perRun-1.
	out := disk.Export("merged")
	total := k * *perRun
	if len(out) != 8*total {
		log.Fatalf("merged %d bytes, want %d", len(out), 8*total)
	}
	for i := 0; i < total; i++ {
		if v := binary.BigEndian.Uint64(out[8*i:]); v != uint64(i) {
			log.Fatalf("merged value %d is %d", i, v)
		}
	}

	fmt.Printf("merged %d runs x %d values in %v — output verified sorted\n",
		k, *perRun, elapsed.Round(time.Millisecond))
	fmt.Printf("goroutines before building the network: %d; while running: about %d\n", before, during)
	fmt.Printf("with %d vertical pipelines, non-virtual FG would need ~%d stage threads;\n", k, 3*k)
	fmt.Println("the virtual group runs all their reads, sources, and sinks on 3 goroutines.")
}
