package dsort

import (
	"encoding/binary"
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/oocsort"
)

// LinearName is the program name of the single-linear-pipeline variant.
const LinearName = "dsort-linear"

// RunLinear executes dsort restricted to a single linear pipeline per node
// per pass — the comparison implementation Section VIII of the paper
// proposes in order to quantify what the multiple-pipeline extensions buy.
//
// With only one pipeline, the stages that receive data cannot run at their
// own pace: the communication stage of pass 1 must interleave draining
// incoming records with sending, and must sort and write full runs inline;
// the merge stage of pass 2 must read run chunks synchronously whenever one
// empties, with no pipeline prefetching them. The extensive bookkeeping in
// this file is itself part of the reproduction: it is the programming
// burden the paper says the extensions remove.
func RunLinear(n *cluster.Node, cfg Config) (oocsort.Result, error) {
	return run(n, cfg, LinearName, pass1Linear, pass2Linear)
}

// pass1Linear is pass 1 on one pipeline: read -> sample -> permute -> send
// -> recvio, where recvio opportunistically drains whatever has arrived, and
// sorts and writes each run inline as it fills.
func pass1Linear(n *cluster.Node, cfg Config) ([]int, error) {
	f := cfg.Spec.Format
	p := n.P()
	bufBytes := f.Bytes(cfg.RunRecords)
	comm := n.Comm("dsortlin.p1")

	// Run accumulation state, owned by the recvio stage.
	runBuf := make([]byte, bufBytes)
	scratch := make([]byte, bufBytes)
	fill := 0
	var runLens []int
	flushRun := func() error {
		if fill == 0 {
			return nil
		}
		sortalgo.SortRecords(f, runBuf[:fill], scratch)
		off := int64(len(runLens)) * int64(bufBytes)
		runLens = append(runLens, f.Count(fill))
		fill = 0
		return n.Disk.WriteAt(runsFile, runBuf[:f.Bytes(runLens[len(runLens)-1])], off)
	}
	ingest := func(msg []byte) error {
		for rest := msg; len(rest) > 0; {
			c := copy(runBuf[fill:], rest)
			fill += c
			rest = rest[c:]
			if fill == bufBytes {
				if err := flushRun(); err != nil {
					return err
				}
			}
		}
		cluster.Release(msg)
		return nil
	}

	nw, done := cfg.Network(n, "dsortlin.p1")
	defer done()
	pipe, sendRounds, _ := addSend(nw, "main", n, cfg)
	pipe.AddStage("send", sendStage(comm, sendRounds))
	// All receiving, run sorting, and run writing happen inline in this one
	// stage — the serialization a single linear pipeline forces.
	doneMarkers := 0
	pipe.AddFreeStage("recvio", func(ctx *fg.Ctx) error {
		for {
			b, ok := ctx.Accept()
			if !ok {
				break
			}
			ctx.Convey(b)
			// Drain whatever has arrived so far without blocking.
			for {
				_, msg, ok := comm.TryRecvAny(tagData)
				if !ok {
					break
				}
				if len(msg) == 0 {
					doneMarkers++
					continue
				}
				if err := ingest(msg); err != nil {
					return err
				}
			}
		}
		for doneMarkers < p {
			_, msg := comm.RecvAny(tagData)
			if len(msg) == 0 {
				doneMarkers++
				continue
			}
			if err := ingest(msg); err != nil {
				return err
			}
		}
		return flushRun()
	})

	if err := nw.Run(); err != nil {
		return nil, err
	}
	return runLens, nil
}

// pass2Linear is pass 2 on one pipeline: a merge stage that synchronously
// reads run chunks as they empty, followed by a commio stage that sends the
// merged blocks to their striped owners, drains and writes incoming pieces,
// and finishes with a blocking drain.
func pass2Linear(n *cluster.Node, cfg Config, runLens []int) error {
	f := cfg.Spec.Format
	size := f.Size
	p, rank := n.P(), n.Rank()
	comm := n.Comm("dsortlin.p2")
	coll := n.Comm("dsortlin.p2coll")

	var partRecs int64
	for _, l := range runLens {
		partRecs += int64(l)
	}
	var wire [8]byte
	binary.BigEndian.PutUint64(wire[:], uint64(partRecs))
	sizes := coll.Allgather(wire[:])
	var start, total int64
	for r, w := range sizes {
		v := int64(binary.BigEndian.Uint64(w))
		if r < rank {
			start += v
		}
		total += v
	}
	if total != cfg.Spec.TotalRecords {
		return fmt.Errorf("partitions hold %d records, want %d", total, cfg.Spec.TotalRecords)
	}

	out := cfg.Spec.Output(p)
	totalBytes := cfg.Spec.TotalBytes()
	expectedLocal := out.LocalBytes(totalBytes, rank)
	hBufBytes := f.Bytes(cfg.OutRecords)
	hRounds := int((partRecs + int64(cfg.OutRecords) - 1) / int64(cfg.OutRecords))
	runBytes := f.Bytes(cfg.RunRecords)
	vBufBytes := f.Bytes(cfg.MergeRecords)

	// One synchronously loaded chunk per run: with no pipeline to prefetch
	// them, the merge step waits for the disk whenever a chunk empties.
	k := len(runLens)
	chunks := make([][]byte, k)
	chunkOff := make([]int, k) // bytes of the run consumed so far
	load := func(i int) ([]byte, error) {
		lenBytes := f.Bytes(runLens[i])
		cnt := min(vBufBytes, lenBytes-chunkOff[i])
		if cnt == 0 {
			return nil, nil
		}
		if chunks[i] == nil {
			chunks[i] = make([]byte, vBufBytes)
		}
		err := n.Disk.ReadAt(runsFile, chunks[i][:cnt], int64(i)*int64(runBytes)+int64(chunkOff[i]))
		chunkOff[i] += cnt
		return chunks[i][:cnt], err
	}

	nw, done := cfg.Network(n, "dsortlin.p2")
	defer done()
	pipe := nw.AddPipeline("main",
		fg.Buffers(cfg.Buffers), fg.BufferBytes(hBufBytes+4096), fg.Rounds(hRounds))

	pipe.AddFreeStage("merge", func(ctx *fg.Ctx) error {
		return newMerger(f, k, load).run(ctx, pipe, hBufBytes)
	})

	var received int64
	doneMarkers := 0
	pipe.AddFreeStage("commio", func(ctx *fg.Ctx) error {
		gOff := start * int64(size)
		for {
			b, ok := ctx.Accept()
			if !ok {
				break
			}
			sendExtents(comm, out, gOff, b.Bytes())
			gOff += int64(b.N)
			ctx.Convey(b)
			for { // opportunistic drain
				_, msg, ok := comm.TryRecvAny(tagOut)
				if !ok {
					break
				}
				if len(msg) == 0 {
					doneMarkers++
					continue
				}
				received += int64(len(msg) - 8)
				if err := writeExtent(n.Disk, cfg.Spec.OutputName, msg); err != nil {
					return err
				}
			}
		}
		for d := 0; d < p; d++ {
			comm.SendAny(d, tagOut, nil)
		}
		for doneMarkers < p {
			_, msg := comm.RecvAny(tagOut)
			if len(msg) == 0 {
				doneMarkers++
				continue
			}
			received += int64(len(msg) - 8)
			if err := writeExtent(n.Disk, cfg.Spec.OutputName, msg); err != nil {
				return err
			}
		}
		if received != expectedLocal {
			return fmt.Errorf("received %d output bytes, want %d", received, expectedLocal)
		}
		return nil
	})

	return nw.Run()
}
