// Package fg is a Go implementation of the FG programming environment
// ("ABCDEFG": Asynchronous Buffered Computation Design and Engineering
// Framework Generator), a framework for mitigating the latency of disk I/O
// and interprocessor communication by assembling programmer-written,
// synchronous stage functions into coarse-grained software pipelines.
//
// # Model
//
// A Pipeline is a linear sequence of stages. The framework adds a source
// stage at the front and a sink stage at the end. The source injects
// fixed-size buffers into the pipeline, beginning a new round with each
// buffer; the sink recycles buffers back to the source, so a small fixed
// pool of buffers serves an unbounded number of rounds and the memory
// consumed by buffers stays within RAM — the heart of out-of-core
// processing. A queue sits between each pair of consecutive stages. Each
// stage runs in its own goroutine (FG's "one thread per stage"), so a stage
// blocked in a high-latency operation — a disk read, a message receive —
// yields while other stages work on other buffers: I/O, communication and
// computation overlap.
//
// A stage is written as an ordinary synchronous function. Most stages are
// round stages (AddStage): the framework accepts a buffer from the stage's
// predecessor, passes it to the function, and conveys it to the successor.
// Stages that accept and convey at different rates — a merge stage, a
// receive stage filling buffers from the network — are free stages
// (AddFreeStage or NewStage) that call Accept, AcceptFrom and Convey
// explicitly on their Ctx.
//
// # Multiple pipelines
//
// A Network holds any number of pipelines that start and finish together.
// Pipelines may be disjoint — e.g. a send pipeline and a receive pipeline
// with independent buffer pools and sizes, for unbalanced communication —
// or they may intersect at a common stage: adding the same *Stage object to
// more than one pipeline makes those pipelines intersect there. The common
// stage runs in a single goroutine and accepts buffers from any of its
// pipelines with AcceptFrom; every buffer remains tied to the pipeline it
// was injected into and conveys along that pipeline only.
//
// # Virtual pipelines
//
// When many structurally identical pipelines are needed — one per sorted
// run being merged, say — creating one thread per stage per pipeline would
// explode. A VirtualGroup declares k pipelines whose stages at each
// position share a single goroutine and a single input queue, exactly as
// FG's virtual stages share one thread. The group's sources and sinks are
// virtualized automatically. The shared source injects the members' initial
// pools round-major — buffer 0 of every member, then buffer 1 of every
// member, and so on — so the first k buffers through a virtual stage belong
// to k different members, and a stage that needs one buffer from each (a
// k-way merge) starts after k rounds; recycled buffers re-enter in the
// order the sink returns them.
//
// # Fork-join
//
// A pipeline may split at a fork stage (AddFork), whose route function sends
// each buffer down one of several branches of round stages, and rejoin at an
// implicit join before it continues. The fork, every branch stage and the
// join are ordinary stages under the same accept–work–convey loop as any
// round stage, so Stats, the status view, the watchdog and traces show them
// like any other; they differ only in where a buffer is conveyed and in
// what happens to the caboose (see Shutdown).
//
// # Shutdown
//
// A source emits its configured number of rounds (or runs until Stop) and
// then emits a caboose, a sentinel that sweeps through the pipeline behind
// the last data buffer. A round stage simply stops being called; a free
// stage sees Accept return ok=false, may convey any partial output it still
// holds, and returns. A free stage may also return early — when it has,
// say, received everything it was promised — and the framework conveys the
// caboose downstream on its behalf. A pipeline is complete when its sink
// has seen the caboose; Network.Run returns when every pipeline completes
// or any stage fails.
//
// The loop that runs round stages handles the caboose by one of three
// rules: a stage (or the k stages of a virtual slot) forwards each caboose
// it receives; a fork replicates its one caboose to every branch; a join
// swallows all but the last of its branches' cabooses.
//
// # Observation
//
// Every stage keeps lock-free counters that Network.Stats snapshots at any
// time; the snapshot is the one description of a network — the status view,
// the metrics, a watchdog's stall report and a remote rank's entry in the
// fleet view are all derived from it. A Tracer is the one event sink: it
// keeps the most recent events — work, wait, communication — up to its
// limit, writes them as a Chrome trace, and writes its last BlackBoxEvents
// as the black box a stall or panic handler dumps. An Observe bundles a
// tracer, a watchdog, a hook called with each network before Run (where a
// metrics registry registers it) and a final-stats callback for code that
// builds networks on a program's behalf. A network with nothing attached
// pays nothing, and the package itself persists and serves nothing.
//
// # Error semantics and fault tolerance
//
// The first error any stage returns wins: it is recorded, every pipeline of
// the network shuts down (in-flight buffers are dropped, not flushed), and
// Run returns that error once all framework goroutines have unwound. Later
// errors from other stages during the unwind are discarded.
//
// A panic in a stage function does not crash the process. Every
// framework-spawned goroutine recovers panics into a *PanicError naming the
// stage and carrying the panic value and stack, and fails the network with
// it. If the panic value is itself an error, PanicError.Unwrap exposes it,
// so errors.Is and errors.As see through panics.
//
// RunContext adds deadlines and cancellation: when the context is done the
// network shuts down exactly as if a stage had failed and RunContext
// returns ctx.Err(). A context that is already expired returns before any
// goroutine is launched.
//
// A failing stage may leave a peer network (on another cluster node)
// blocked in an operation this network cannot unblock. OnFail registers a
// callback that fires at the instant of the first error, before the unwind,
// so node programs can trigger cluster-wide teardown (cluster.Abort) that
// releases such peers.
//
// # Multicore parallelism
//
// Every stage runs on its own goroutine, so a network's stages already
// spread over the machine's cores: while one stage waits on a disk or a
// peer, another computes. That is where FG's parallelism comes from. A
// stage function computes on one buffer at a time, on its own goroutine;
// the sorting programs' kernels (sort, merge, partition) are serial and
// take no width. To put more cores behind a pipeline, give it more stages
// or more buffers in flight, not a wider kernel.
package fg
