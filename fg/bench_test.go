package fg

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkObservability prices the observability subsystem on the
// stage-runner hot path against "off", the default configuration — no
// tracer, no registry — whose per-round allocation count
// TestUnobservedRoundAllocatesNothing holds at zero: "traced" attaches a
// Tracer and "metered" registers the network with a scraping registry
// mid-run.
func BenchmarkObservability(b *testing.B) {
	build := func(rounds int) *Network {
		nw := NewNetwork("bench")
		p := nw.AddPipeline("main", Buffers(4), BufferBytes(64), Rounds(rounds))
		for s := 0; s < 3; s++ {
			p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
		}
		return nw
	}
	b.Run("off", func(b *testing.B) {
		nw := build(b.N)
		b.ResetTimer()
		if err := nw.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("traced", func(b *testing.B) {
		nw := build(b.N)
		nw.SetTracer(NewTracer(1 << 20))
		b.ResetTimer()
		if err := nw.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("metered", func(b *testing.B) {
		nw := build(b.N)
		r := NewMetricsRegistry()
		r.RegisterNetwork(nw)
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Samples()
				}
			}
		}()
		b.ResetTimer()
		if err := nw.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		close(stop)
	})
}

// BenchmarkAutotuneOverhead prices the self-tuning scheduler on the same
// trivial pipeline as BenchmarkObservability: "off" is the plain build (no
// tuner, a nil knob), "on" runs with an attached AutoTuner sampling at its
// default interval and a knob read by every round — the configuration
// -autotune enables.
func BenchmarkAutotuneOverhead(b *testing.B) {
	build := func(rounds int, k *Knob) *Network {
		nw := NewNetwork("bench")
		p := nw.AddPipeline("main", Buffers(4), BufferBytes(64), Rounds(rounds))
		for s := 0; s < 3; s++ {
			p.AddStage("s", func(ctx *Ctx, b *Buffer) error {
				_ = k.Workers()
				return nil
			})
		}
		return nw
	}
	b.Run("off", func(b *testing.B) {
		nw := build(b.N, nil) // nil knob: the untuned one-branch read
		b.ReportAllocs()
		b.ResetTimer()
		if err := nw.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("on", func(b *testing.B) {
		tn := NewAutoTuner(AutoTune{Min: 1, Max: 4, Interval: 100 * time.Millisecond})
		nw := build(b.N, tn.Knob("s", 1))
		defer tn.Tune(nw)()
		b.ReportAllocs()
		b.ResetTimer()
		if err := nw.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkVirtualGroup measures the shared-thread dispatch of k virtual
// pipelines against the same rounds through plain pipelines.
func BenchmarkVirtualGroup(b *testing.B) {
	for _, k := range []int{4, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rounds := b.N/k + 1
			nw := NewNetwork("bench")
			vg := nw.AddVirtualGroup("g")
			for i := 0; i < k; i++ {
				p := vg.AddPipeline(fmt.Sprintf("p%d", i), Buffers(2), BufferBytes(8), Rounds(rounds))
				p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
			}
			b.ResetTimer()
			if err := nw.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkForkJoin measures fork routing plus join collapse overhead.
func BenchmarkForkJoin(b *testing.B) {
	nw := NewNetwork("bench")
	p := nw.AddPipeline("main", Buffers(4), BufferBytes(8), Rounds(b.N))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return b.Round & 1, nil })
	fork.Branch(0).AddStage("a", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Branch(1).AddStage("b", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	b.ResetTimer()
	if err := nw.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIntersectingAccept measures the merge-style AcceptFrom path with
// held-buffer bookkeeping across 8 virtual inputs.
func BenchmarkIntersectingAccept(b *testing.B) {
	const k = 8
	nw := NewNetwork("bench")
	vg := nw.AddVirtualGroup("in")
	rounds := b.N/k + 1
	pipes := make([]*Pipeline, k)
	for i := 0; i < k; i++ {
		pipes[i] = vg.AddPipeline(fmt.Sprintf("p%d", i), Buffers(2), BufferBytes(8), Rounds(rounds))
		pipes[i].AddStage("fill", func(ctx *Ctx, b *Buffer) error {
			b.N = 8
			return nil
		})
	}
	drain := NewStage("drain", func(ctx *Ctx) error {
		for i := 0; i < k; i++ {
			for {
				bb, ok := ctx.AcceptFrom(pipes[i])
				if !ok {
					break
				}
				ctx.Convey(bb)
			}
		}
		return nil
	})
	for _, p := range pipes {
		p.Add(drain)
	}
	b.ResetTimer()
	if err := nw.Run(); err != nil {
		b.Fatal(err)
	}
}
