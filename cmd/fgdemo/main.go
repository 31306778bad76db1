// Command fgdemo runs the one FG pipeline form no example shows — a
// fork-join region — and prints its per-stage statistics and a traced
// timeline. Odd rounds take a heavy branch, even rounds a light one; the
// statistics list the fork, both branch stages and the join like any other
// stage, and the Gantt chart shows the branches working concurrently.
// (examples/quickstart is the linear pipeline, examples/mergestreams the
// virtual pipelines intersecting at a merge stage.)
//
// Usage:
//
//	fgdemo            # run with overlap
//	fgdemo -buffers 1 # serialize the stages and compare
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/fg-go/fg/fg"
)

func main() {
	var (
		buffers = flag.Int("buffers", 3, "buffer pool of the pipeline (1 = no overlap)")
		rounds  = flag.Int("rounds", 24, "rounds to run")
		stageMS = flag.Int("stage-ms", 2, "simulated latency per stage call, in ms")
	)
	flag.Parse()
	lat := time.Duration(*stageMS) * time.Millisecond
	sleep := func(d time.Duration) fg.RoundFunc {
		return func(ctx *fg.Ctx, b *fg.Buffer) error {
			time.Sleep(d)
			return nil
		}
	}

	tr := fg.NewTracer(0)
	nw := fg.NewNetwork("demo-fork")
	nw.SetTracer(tr)
	p := nw.AddPipeline("forked", fg.Buffers(*buffers), fg.BufferBytes(8), fg.Rounds(*rounds))
	p.AddStage("produce", sleep(lat/4))
	fork := p.AddFork("classify", 2, func(ctx *fg.Ctx, b *fg.Buffer) (int, error) {
		return b.Round % 2, nil
	})
	fork.Branch(0).AddStage("light", sleep(lat/2))
	fork.Branch(1).AddStage("heavy", sleep(2*lat))
	fork.Join()
	p.AddStage("finish", sleep(0))
	if err := nw.Run(); err != nil {
		log.Fatal(err)
	}
	st := nw.Stats()
	fmt.Printf("fork-join pipeline: %d rounds, wall %v\n", *rounds, st.Wall.Round(time.Millisecond))
	fmt.Print(st)
	fmt.Println(st.Bottleneck())
	fmt.Print(tr.Gantt(70))
}
