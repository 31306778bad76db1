package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/internal/parallel"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/internal/spsc"
	"github.com/fg-go/fg/mergetree"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/service"
	"github.com/fg-go/fg/supervise"
	"github.com/fg-go/fg/workload"
)

// Probes time one layer at steady state through its public functions. They
// are identical on every workload; the README says which workload's regime
// each one explains.

const (
	frameBytes = 64 << 10 // the probes' buffer, frame and disk-op size
	// kernelRecords × 16 B is the csort column at cpu-rec16 and the
	// smallest buffer on which every parallel kernel engages.
	kernelRecords = 32 << 10
	probeRanks    = 16 // the Figure 8 cluster
)

// steady calls fn with a growing iteration count until one call's timed
// region lasts at least d, and returns that call's nanoseconds per
// iteration: the testing.B procedure, so lazy set-up and cold caches are
// left behind. fn returns the duration of the region it timed.
func steady(d time.Duration, fn func(n int) time.Duration) float64 {
	n := 1
	for {
		took := fn(n)
		if took >= d || n >= 1<<30 {
			return float64(took.Nanoseconds()) / float64(n)
		}
		grow := 2.0
		if took > 0 {
			grow = min(100, max(1.2*float64(d)/float64(took), 1.5))
		}
		n = int(float64(n)*grow) + 1
	}
}

// timeLoop is the common case of steady: fn is one iteration.
func timeLoop(d time.Duration, fn func()) float64 {
	return steady(d, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(start)
	})
}

// probeModelError measures simulator fidelity: the wall time of 2 000
// calibrated disk operations over what the Figure 8 disk model says they
// cost, minus one. It runs first in every traced run.
func probeModelError(o options) float64 {
	d := pdm.NewDisk(harness.DefaultParams().Disk)
	ops := pick(o, 2000, 20)
	buf := make([]byte, 64)
	var modelled time.Duration
	start := time.Now()
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			_ = d.WriteAt("f", buf, 0) // cannot fail: offset 0, no injector
		} else {
			_ = d.ReadAt("f", buf, 0) // cannot fail: just written
		}
		modelled += d.Model().Cost(len(buf))
	}
	return time.Since(start).Seconds()/modelled.Seconds() - 1
}

// probes runs every steady-state probe and stores its metrics.
func probes(v values, o options) error {
	d := pick(o, 150*time.Millisecond, time.Millisecond) // per probe
	probeDisk(v, d)
	for _, kind := range []string{cluster.TransportInproc, cluster.TransportTCP} {
		perFrame, alloc, err := probeFrames(d, kind)
		if err != nil {
			return fmt.Errorf("%s frame probe: %w", kind, err)
		}
		v["cluster."+kind+"_frame_ns"], v["cluster."+kind+"_alloc_b_per_frame"] = perFrame, alloc
	}
	if err := probeCollectives(v, d); err != nil {
		return fmt.Errorf("collectives probe: %w", err)
	}
	if err := probeFG(v, d); err != nil {
		return fmt.Errorf("fg probe: %w", err)
	}
	probeKernels(v, d)
	probeHelpers(v, d)
	return nil
}

func probeDisk(v values, d time.Duration) {
	disk := pdm.NewDisk(pdm.NullDiskModel)
	buf := make([]byte, frameBytes)
	_ = disk.WriteAt("f", buf, 0)
	write := true
	v["pdm.null_op_ns"] = timeLoop(d, func() {
		if write {
			_ = disk.WriteAt("f", buf, 0)
		} else {
			_ = disk.ReadAt("f", buf, 0)
		}
		write = !write
	})
}

// probeFrames streams 64 KiB frames from rank 0 to rank 1 of a two-rank
// cluster and returns the time and the bytes allocated per frame.
func probeFrames(d time.Duration, kind string) (nsPerFrame, allocPerFrame float64, err error) {
	c, err := cluster.Open(cluster.Config{Nodes: 2, Transport: cluster.TransportConfig{Kind: kind}})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	payload := make([]byte, frameBytes)
	var frames int
	var alloc uint64
	per := steady(d, func(n int) time.Duration {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = c.Run(func(node *cluster.Node) error {
			for i := 0; i < n; i++ {
				if node.Rank() == 0 {
					node.Send(1, 1, payload)
				} else {
					node.Recv(0, 1)
				}
			}
			return nil
		})
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		frames, alloc = n, after.TotalAlloc-before.TotalAlloc
		return took
	})
	return per, float64(alloc) / float64(frames), err
}

// probeCollectives times a barrier and a 1 KiB-per-peer all-to-all across
// the 16 in-process ranks of the Figure 8 cluster.
func probeCollectives(v values, d time.Duration) error {
	c := cluster.New(cluster.Config{Nodes: probeRanks})
	defer c.Close()
	var err error
	collective := func(each func(comm *cluster.Comm)) float64 {
		return steady(d, func(n int) time.Duration {
			start := time.Now()
			err = c.Run(func(node *cluster.Node) error {
				comm := node.Comm("probe")
				for i := 0; i < n; i++ {
					each(comm)
				}
				return nil
			})
			return time.Since(start)
		})
	}
	v["cluster.barrier_ns"] = collective(func(comm *cluster.Comm) { comm.Barrier() })
	part := make([]byte, 1<<10)
	v["cluster.alltoall_ns"] = collective(func(comm *cluster.Comm) {
		parts := make([][]byte, probeRanks)
		for i := range parts {
			parts[i] = part
		}
		comm.Alltoall(parts)
	})

	keys := make([]uint64, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	v["splitter.select_s"] = timeLoop(d, func() {
		err = c.Run(func(node *cluster.Node) error {
			_, err := splitter.Select(node.Comm("probe.split"), int64(len(keys)),
				func(idx int64) (uint64, error) { return keys[idx], nil }, 0, 1)
			return err
		})
	}) / 1e9
	return err
}

// probeFG times a buffer's hand-off between stages and the fixed cost of a
// network: four no-op stages, 64 KiB buffers, a pool of four.
func probeFG(v values, d time.Duration) error {
	const stages = 4
	var err error
	run := func(rounds int) time.Duration {
		start := time.Now()
		nw := fg.NewNetwork("probe")
		p := nw.AddPipeline("main", fg.Buffers(4), fg.BufferBytes(frameBytes), fg.Rounds(rounds))
		for i := 0; i < stages; i++ {
			p.AddStage("noop", func(*fg.Ctx, *fg.Buffer) error { return nil })
		}
		err = nw.Run()
		return time.Since(start)
	}
	// A buffer makes stages+1 hops per round: source → each stage → sink.
	v["fg.handoff_ns"] = steady(d, run) / (stages + 1)
	v["fg.network_setup_s"] = timeLoop(d, func() { run(1) }) / 1e9
	return err
}

func probeKernels(v values, d time.Duration) {
	f := records.NewFormat(16)
	width := parallel.DefaultWidth()
	random := make([]byte, f.Bytes(kernelRecords))
	workload.NewGenerator(f, workload.Uniform, 1, 0).Fill(random)
	data := make([]byte, len(random))
	scratch := make([]byte, len(random))
	perRec := func(fn func()) float64 { return timeLoop(d, fn) / kernelRecords }

	// Each iteration sorts a fresh copy; the 512 KiB copy is ~1% of a sort.
	v["sortalgo.sort_ns_per_rec"] = perRec(func() {
		copy(data, random)
		sortalgo.SortRecords(f, data, scratch)
	})
	v["sortalgo.sort_par_ns_per_rec"] = perRec(func() {
		copy(data, random)
		sortalgo.SortRecordsParallel(f, data, scratch, width)
	})

	half := len(data) / 2
	copy(data, random)
	sortalgo.SortRecords(f, data[:half], scratch)
	sortalgo.SortRecords(f, data[half:], scratch)
	v["sortalgo.merge_ns_per_rec"] = perRec(func() { sortalgo.MergeSorted(f, data[:half], data[half:], scratch) })
	v["sortalgo.merge_par_ns_per_rec"] = perRec(func() { sortalgo.MergeSortedParallel(f, data[:half], data[half:], scratch, width) })

	// dsort's pass-1 permute: 16 destinations, here by the key's top bits.
	classify := func(i int) int { return int(random[i*f.Size] >> 4) }
	v["sortalgo.partition_ns_per_rec"] = perRec(func() { sortalgo.PartitionRecords(f, random, scratch, probeRanks, classify, 1) })
	v["sortalgo.partition_par_ns_per_rec"] = perRec(func() { sortalgo.PartitionRecords(f, random, scratch, probeRanks, classify, width) })

	// dsort's pass-2 merge at Figure 8 scale: 8 sorted runs per node.
	const runs = 8
	streams := make([][]uint64, runs)
	rng := rand.New(rand.NewSource(1))
	for i := range streams {
		streams[i] = make([]uint64, kernelRecords/runs)
		for j := range streams[i] {
			streams[i][j] = rng.Uint64()
		}
		sort.Slice(streams[i], func(a, b int) bool { return streams[i][a] < streams[i][b] })
	}
	v["mergetree.merge_ns_per_rec"] = perRec(func() {
		t := mergetree.New(runs)
		var at [runs]int
		for i, s := range streams {
			t.Set(i, s[0])
		}
		for {
			leaf, _, ok := t.Min()
			if !ok {
				return
			}
			if at[leaf]++; at[leaf] < len(streams[leaf]) {
				t.Set(leaf, streams[leaf][at[leaf]])
			} else {
				t.Close(leaf)
			}
		}
	})
}

func probeHelpers(v values, d time.Duration) {
	v["parallel.do_overhead_ns"] = timeLoop(d, func() { parallel.Do(2, 2, func(int) {}) })

	ring := spsc.New[int](64)
	v["spsc.handoff_ns"] = steady(d, func(n int) time.Duration {
		done := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				_, _ = ring.Pop(nil) // a nil done channel never aborts
			}
		}()
		for i := 0; i < n; i++ {
			_ = ring.Push(i, nil)
		}
		<-done
		return time.Since(start)
	})

	f := records.NewFormat(16)
	buf := make([]byte, 4<<20)
	gen := workload.NewGenerator(f, workload.Uniform, 1, 0)
	v["workload.fill_mb_per_s"] = float64(len(buf)) / 1e6 / (timeLoop(d, func() { gen.Fill(buf) }) / 1e9)

	v["supervise.run_overhead_ns"] = timeLoop(d, func() {
		supervise.Run(supervise.Job{Name: "probe", Run: func(int) ([]string, error) { return nil, nil }}, supervise.Policy{MaxAttempts: 2})
	})

	spec, _ := json.Marshal(service.JobSpec{Program: "dsort", Nodes: 4, Records: 1 << 16, Disk: &service.DiskSpec{}})
	v["service.decode_validate_ns"] = timeLoop(d, func() { _, _ = service.DecodeJobSpec(bytes.NewReader(spec)) })
}
