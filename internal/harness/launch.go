package harness

// The local-process launcher: the ranks of one loopback-TCP job as real OS
// processes of the running binary, each handed its description through
// RankEnv. The soak driver and every multi-process test start, watch, kill,
// replace and collect ranks through it, so there is one exec.Command, one
// port reservation and one output watcher in the tree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// FailedAttemptMarker is what a supervisor logs for each attempt it has
// fully torn down — listener included — which makes the line on rank 0's
// stderr the safe moment to admit a replacement process: the newcomer can
// only ever join the retry. admitWait is the backstop after which it is
// spawned anyway (in a healthy run the marker arrives within the
// death-detection latency).
const (
	FailedAttemptMarker = ": failed"
	admitWait           = 20 * time.Second
)

// A Launcher owns the rank processes of one job. Kill is safe from any
// goroutine; the rest is for the one goroutine that owns the launcher.
type Launcher struct {
	dir   string
	args  []string
	log   io.Writer
	watch *markWatch // rank 0's stderr, counting FailedAttemptMarker
	exitc chan *proc

	mu   sync.Mutex
	live map[int]*proc
	gen  map[int]int
}

type proc struct {
	rank, gen      int
	base           string // dir/rankR.genG, the stem of the process's files
	cmd            *exec.Cmd
	stdout, stderr *markWatch
	timedOut       bool
}

// An Exit is how one rank process ended, with everything it said.
type Exit struct {
	Rank, Gen int
	Code      int  // the exit status, -1 when a signal killed the process
	TimedOut  bool // the launcher killed it at Wait's deadline
	// Result is the rank's result line; when it printed none, a failed
	// result saying so.
	Result         RankResult
	Stdout, Stderr string
}

// Problem says in one line what kept an exit from being a clean one —
// outlived its deadline, killed by a signal, non-zero status, no result
// line or a failed one — and is empty for a clean one.
func (e Exit) Problem() string {
	switch {
	case e.TimedOut:
		return fmt.Sprintf("rank %d outlived its deadline", e.Rank)
	case e.Code == -1:
		return fmt.Sprintf("rank %d killed by a signal", e.Rank)
	case e.Code != 0:
		return fmt.Sprintf("rank %d exited %d", e.Rank, e.Code)
	case !e.Result.OK:
		return fmt.Sprintf("rank %d: %s", e.Rank, e.Result.Error)
	}
	return ""
}

// Err is Problem with the tail of the process's stderr, nil for a clean exit.
func (e Exit) Err() error {
	problem := e.Problem()
	if problem == "" {
		return nil
	}
	return fmt.Errorf("%s\nstderr tail:\n%s", problem, e.Stderr[max(0, len(e.Stderr)-2000):])
}

// NewLauncher returns a launcher whose processes run in dir — which also
// receives each rank's description (rankR.genG.json) and captured output
// (rankR.genG.stdout, .stderr) — with args as their argv: a test binary
// passes "-test.run=^$" so its re-executed copy runs no tests of its own.
// log receives progress lines.
func NewLauncher(dir string, args []string, log io.Writer) *Launcher {
	return &Launcher{
		dir: dir, args: args, log: log,
		watch: newMarkWatch(FailedAttemptMarker), exitc: make(chan *proc),
		live: map[int]*proc{}, gen: map[int]int{},
	}
}

// ReserveLoopback allocates n loopback addresses by binding and releasing
// ephemeral listeners; the window between the release and the new owner's
// bind is microscopic on loopback.
func ReserveLoopback(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// Spawn starts rank's next generation with desc — a Rank, to any binary
// that routes RankEnv into RankMain — written beside it as JSON.
func (l *Launcher) Spawn(rank int, desc any) error {
	raw, err := json.MarshalIndent(desc, "", "  ")
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &proc{rank: rank, gen: l.gen[rank], stdout: newMarkWatch(""), stderr: newMarkWatch("")}
	l.gen[rank]++
	if rank == 0 {
		p.stderr = l.watch
	}
	// Absolute, because the child resolves it from its own working directory.
	if p.base, err = filepath.Abs(filepath.Join(l.dir, fmt.Sprintf("rank%d.gen%d", rank, p.gen))); err != nil {
		return err
	}
	if err := os.WriteFile(p.base+".json", raw, 0o644); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	p.cmd = exec.Command(exe, l.args...)
	p.cmd.Dir = l.dir // a stalled rank dumps its black box into its working directory
	p.cmd.Env = append(os.Environ(), RankEnv+"="+p.base+".json")
	p.cmd.Stdout, p.cmd.Stderr = p.stdout, p.stderr
	// A pipe cmd holds open for the process's whole life, and the kernel
	// closes if this process dies: what a Hold rank waits on.
	if _, err = p.cmd.StdinPipe(); err != nil {
		return err
	}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("spawn rank %d: %w", rank, err)
	}
	l.live[rank] = p
	go func() {
		_ = p.cmd.Wait()
		_ = os.WriteFile(p.base+".stdout", []byte(p.stdout.String()), 0o644)
		_ = os.WriteFile(p.base+".stderr", []byte(p.stderr.String()), 0o644)
		l.exitc <- p
	}()
	return nil
}

// Kill SIGKILLs rank's live process, if it has one.
func (l *Launcher) Kill(rank int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.live[rank]; p != nil {
		p.cmd.Process.Kill()
	}
}

// Close kills every process still running and reaps it — a Wait whose
// deadline has already passed — so nothing writes into the launcher's
// directory afterwards.
func (l *Launcher) Close() { _, _ = l.Wait(0, nil) }

// Wait collects exits until no process is live, and returns them in the
// order they happened. For each exit it first asks replace (nil asks
// nothing) whether the rank gets a replacement; a non-nil description is
// spawned as the rank's next generation once rank 0 has logged a
// FailedAttemptMarker it had not logged when the exit was seen. A process
// still live at the timeout is killed and reported as TimedOut: a stuck
// rank is an Exit, never a hang.
func (l *Launcher) Wait(timeout time.Duration, replace func(Exit) any) ([]Exit, error) {
	var exits []Exit
	deadline := time.After(timeout)
	for {
		l.mu.Lock()
		n := len(l.live)
		l.mu.Unlock()
		if n == 0 {
			return exits, nil
		}
		select {
		case p := <-l.exitc:
			l.mu.Lock()
			if l.live[p.rank] == p {
				delete(l.live, p.rank)
			}
			l.mu.Unlock()
			e := p.exit()
			exits = append(exits, e)
			if replace == nil {
				continue
			}
			seen := l.watch.Count()
			if desc := replace(e); desc != nil {
				fmt.Fprintf(l.log, "launcher: rank %d gone; waiting to admit its replacement\n", e.Rank)
				l.watch.WaitAbove(seen, admitWait)
				if err := l.Spawn(e.Rank, desc); err != nil {
					return exits, err
				}
			}
		case <-deadline:
			l.mu.Lock()
			for _, p := range l.live {
				p.timedOut = true
				p.cmd.Process.Kill()
			}
			l.mu.Unlock()
			replace = nil
		}
	}
}

// exit reduces a finished process to its Exit.
func (p *proc) exit() Exit {
	e := Exit{
		Rank: p.rank, Gen: p.gen, Code: p.cmd.ProcessState.ExitCode(), TimedOut: p.timedOut,
		Stdout: p.stdout.String(), Stderr: p.stderr.String(),
	}
	for _, line := range strings.Split(e.Stdout, "\n") {
		if rest, ok := strings.CutPrefix(line, ResultPrefix); ok && json.Unmarshal([]byte(rest), &e.Result) == nil {
			return e
		}
	}
	e.Result = RankResult{Rank: p.rank, Error: "printed no result line"}
	return e
}

// markWatch is an io.Writer that accumulates output and counts occurrences
// of a marker substring as they stream in, waking waiters — the launcher's
// window into rank 0's supervisor progress. It is also the locked buffer
// behind every other captured stream (marker "").
type markWatch struct {
	mu      sync.Mutex
	b       bytes.Buffer
	marker  []byte
	scanned int // no match starts before this offset of b
	count   int
	bump    chan struct{} // closed and replaced on every count change
}

func newMarkWatch(marker string) *markWatch {
	return &markWatch{marker: []byte(marker), bump: make(chan struct{})}
}

func (w *markWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.b.Write(p)
	if len(w.marker) == 0 {
		return len(p), nil
	}
	// Only the new bytes, plus the len(marker)-1 before them a marker split
	// across writes could start in, are ever scanned.
	buf := w.b.Bytes()
	for {
		i := bytes.Index(buf[w.scanned:], w.marker)
		if i < 0 {
			break
		}
		w.scanned += i + len(w.marker)
		w.count++
		close(w.bump)
		w.bump = make(chan struct{})
	}
	w.scanned = max(w.scanned, len(buf)-len(w.marker)+1)
	return len(p), nil
}

func (w *markWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// Count returns how many times the marker has appeared.
func (w *markWatch) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// WaitAbove blocks until the marker count exceeds base or the timeout
// elapses; it reports whether the count moved.
func (w *markWatch) WaitAbove(base int, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		w.mu.Lock()
		c, bump := w.count, w.bump
		w.mu.Unlock()
		if c > base {
			return true
		}
		select {
		case <-bump:
		case <-deadline:
			return false
		}
	}
}
