package oocsort

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// toyProgram is a three-pass program over a 2-node cluster: pass "a" writes
// file fa and sets state, "b" (not checkpointed) only counts, "c" writes fc
// from state, "d" is the final pass. ran records which bodies executed.
func toyProgram(t *testing.T, ck fg.Checkpoint, failIn string) (res []Result, ran []string, err error) {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 2})
	res = make([]Result, 2)
	var mu sync.Mutex
	err = c.Run(func(n *cluster.Node) error {
		o := Options{Checkpoint: ck}
		var state []int
		body := func(name string, f func() error) func() error {
			return func() error {
				if n.Rank() == 0 {
					mu.Lock()
					ran = append(ran, name)
					mu.Unlock()
				}
				if name == failIn {
					return errors.New("boom")
				}
				return f()
			}
		}
		r, err := RunPasses(n, &o, "toy", []Pass{
			{Name: "a", Align: true, Artifacts: []string{"fa"}, State: &state, Body: body("a", func() error {
				state = []int{n.Rank(), 7}
				return n.Disk.WriteAt("fa", []byte("aaaa"), 0)
			})},
			{Name: "b", Body: body("b", func() error { return nil })},
			{Name: "c", Artifacts: []string{"fc"}, Body: body("c", func() error {
				if len(state) != 2 || state[0] != n.Rank() || state[1] != 7 {
					t.Errorf("rank %d: pass c sees state %v", n.Rank(), state)
				}
				buf := make([]byte, 4)
				if err := n.Disk.ReadAt("fa", buf, 0); err != nil || string(buf) != "aaaa" {
					t.Errorf("rank %d: pass c reads fa = %q, %v", n.Rank(), buf, err)
				}
				return n.Disk.WriteAt("fc", []byte("cc"), 0)
			})},
			{Name: "d", Body: body("d", func() error {
				buf := make([]byte, 2)
				if err := n.Disk.ReadAt("fc", buf, 0); err != nil || string(buf) != "cc" {
					t.Errorf("rank %d: pass d reads fc = %q, %v", n.Rank(), buf, err)
				}
				return nil
			})},
		})
		res[n.Rank()] = r
		return err
	})
	return res, ran, err
}

func passNames(r Result) string {
	var names []string
	for _, p := range r.Passes {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

// TestRunPassesResumesAtHighestCommonBoundary walks the driver through a
// fresh run, a failure after the first boundary, and two resumes: a restart
// skips exactly the passes up to the highest boundary every rank
// checkpointed, restores that boundary's files and state, lists only
// checkpointed passes as resumed, and still reports every pass's timing.
func TestRunPassesResumesAtHighestCommonBoundary(t *testing.T) {
	// Without a checkpoint everything runs, nothing resumes.
	res, ran, err := toyProgram(t, nil, "")
	if err != nil || strings.Join(ran, ",") != "a,b,c,d" || len(res[0].Resumed) != 0 {
		t.Fatalf("uncheckpointed run: ran %v resumed %v err %v", ran, res[0].Resumed, err)
	}
	if res[1].Program != "toy" || passNames(res[1]) != "a,b,c,d" {
		t.Errorf("result %q passes %s", res[1].Program, passNames(res[1]))
	}

	ck, err := fg.NewDirCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 dies in pass c: boundary a is committed, c is not.
	_, ran, err = toyProgram(t, ck, "c")
	if err == nil || !strings.Contains(err.Error(), "toy: c on node") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("failing pass reported as %v", err)
	}
	if strings.Join(ran, ",") != "a,b,c" {
		t.Errorf("attempt 1 ran %v", ran)
	}
	// Attempt 2 resumes after a — b is not a boundary, so it reruns — and
	// commits c.
	res, ran, err = toyProgram(t, ck, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ran, ",") != "b,c,d" || strings.Join(res[0].Resumed, ",") != "a" || passNames(res[0]) != "a,b,c,d" {
		t.Errorf("attempt 2 ran %v resumed %v passes %s", ran, res[0].Resumed, passNames(res[0]))
	}
	// Attempt 3 resumes at the highest boundary, c; the uncheckpointed b it
	// skips is timed at zero but not listed as resumed.
	res, ran, err = toyProgram(t, ck, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ran, ",") != "d" || strings.Join(res[1].Resumed, ",") != "a,c" || passNames(res[1]) != "a,b,c,d" {
		t.Errorf("attempt 3 ran %v resumed %v passes %s", ran, res[1].Resumed, passNames(res[1]))
	}
	if res[1].Pass("b") != 0 {
		t.Errorf("skipped pass b timed at %v", res[1].Pass("b"))
	}
	// One rank losing its checkpoint forces the whole cluster back: the
	// resume vote is unanimous or it is no.
	if err := ck.Clear(1); err != nil {
		t.Fatal(err)
	}
	res, ran, err = toyProgram(t, ck, "")
	if err != nil || strings.Join(ran, ",") != "a,b,c,d" || len(res[0].Resumed) != 0 {
		t.Errorf("after rank 1 lost its checkpoint: ran %v resumed %v err %v", ran, res[0].Resumed, err)
	}
}

// TestOptionsNetworkAbortsClusterOnFailure: a pass network built by
// Options.Network is named name@rank, and a stage failure on one rank
// aborts the cluster, so the other rank's blocked receive returns instead
// of waiting for a peer that has given up.
func TestOptionsNetworkAbortsClusterOnFailure(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2})
	err := c.Run(func(n *cluster.Node) error {
		var o Options
		nw, done := o.Network(n, "toy.p1")
		defer done()
		if want := "toy.p1@" + string(rune('0'+n.Rank())); nw.Name() != want {
			t.Errorf("network named %q, want %q", nw.Name(), want)
		}
		p := nw.AddPipeline("main", fg.Buffers(1), fg.BufferBytes(8), fg.Rounds(1))
		p.AddStage("s", func(ctx *fg.Ctx, b *fg.Buffer) error {
			if n.Rank() == 0 {
				return errors.New("rank 0 gives up")
			}
			n.Comm("toy").Recv(0, 1) // never sent: only the abort releases it
			return nil
		})
		if got := o.Workers("s")(); got != 0 {
			t.Errorf("untuned Workers = %d, want Parallelism 0", got)
		}
		return nw.Run()
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 gives up") {
		t.Fatalf("cluster run returned %v, want rank 0's failure", err)
	}
}
