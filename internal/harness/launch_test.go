package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain routes a re-exec'd copy of this test binary into the rank body
// before any test runs — or, for the launcher's own tests, into a stub.
func TestMain(m *testing.M) {
	if IsRank() {
		os.Exit(rankOrStub())
	}
	os.Exit(m.Run())
}

// A stub is what the launcher tests spawn in place of a Rank: a child body
// trivial enough that how it ends is known in advance.
type stub struct {
	Stub string `json:"stub"`
}

func rankOrStub() int {
	var s stub
	raw, _ := os.ReadFile(os.Getenv(RankEnv))
	_ = json.Unmarshal(raw, &s)
	switch s.Stub {
	case "":
		return RankMain()
	case "exit7":
		fmt.Fprintln(os.Stderr, "stub: giving up")
		return 7
	case "kill":
		fmt.Fprintln(os.Stderr, "stub: about to die")
		p, _ := os.FindProcess(os.Getpid())
		_ = p.Kill()
		time.Sleep(time.Hour)
	case "silent":
		return 0
	case "sleep":
		time.Sleep(time.Hour)
	case "survivor":
		// Rank 0 of the admission test: it logs its failed attempt only once
		// the test says so, and leaves word that it has.
		for {
			if _, err := os.Stat("trigger"); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		_ = os.WriteFile("logged", nil, 0o644)
		fmt.Fprintln(os.Stderr, "supervise: attempt 1"+FailedAttemptMarker+": peer 1 dead")
	case "replacement":
		if _, err := os.Stat("logged"); err != nil {
			fmt.Fprintln(os.Stderr, "stub: admitted before rank 0 logged the failed attempt")
			return 7
		}
	}
	fmt.Println(ResultPrefix + `{"ok":true}`)
	return 0
}

// TestLauncherReportsHowAChildEnded: a child that exits non-zero, dies by
// signal, prints no result line or outlives its deadline is reported as
// exactly that, with what it said on stderr — never as a hang.
func TestLauncherReportsHowAChildEnded(t *testing.T) {
	for _, tc := range []struct {
		stub     string
		deadline time.Duration
		problem  string
		said     string
	}{
		{"exit7", time.Minute, "rank 1 exited 7", "stub: giving up"},
		{"kill", time.Minute, "rank 1 killed by a signal", "stub: about to die"},
		{"silent", time.Minute, "rank 1: printed no result line", ""},
		{"sleep", 50 * time.Millisecond, "rank 1 outlived its deadline", ""},
	} {
		t.Run(tc.stub, func(t *testing.T) {
			l := NewLauncher(t.TempDir(), testArgs, io.Discard)
			t.Cleanup(l.Close)
			if err := l.Spawn(1, stub{tc.stub}); err != nil {
				t.Fatal(err)
			}
			exits, err := l.Wait(tc.deadline, nil)
			if err != nil || len(exits) != 1 {
				t.Fatalf("Wait = %+v, %v; want one exit", exits, err)
			}
			e := exits[0]
			if e.Problem() != tc.problem {
				t.Errorf("Problem() = %q, want %q", e.Problem(), tc.problem)
			}
			if msg := e.Err().Error(); !strings.Contains(msg, tc.problem) || !strings.Contains(msg, tc.said) {
				t.Errorf("Err() = %q, want the problem and the stderr tail %q", msg, tc.said)
			}
			if e.TimedOut != (tc.stub == "sleep") || (e.Code == -1) != (tc.stub == "kill" || tc.stub == "sleep") {
				t.Errorf("exit %+v misreports how the child ended", e)
			}
		})
	}
}

// TestLauncherAdmitsReplacementAfterMarker: a killed rank's replacement is
// spawned only once rank 0 has logged a failed attempt it had not logged
// when the death was seen. Rank 0 logs only after the replace callback has
// run, and the replacement itself checks that rank 0 got there first.
func TestLauncherAdmitsReplacementAfterMarker(t *testing.T) {
	dir := t.TempDir()
	l := NewLauncher(dir, testArgs, io.Discard)
	t.Cleanup(l.Close)
	for rank, s := range []stub{{"survivor"}, {"kill"}} {
		if err := l.Spawn(rank, s); err != nil {
			t.Fatal(err)
		}
	}
	exits, err := l.Wait(time.Minute, func(e Exit) any {
		if e.Code != -1 {
			return nil
		}
		if err := os.WriteFile(filepath.Join(dir, "trigger"), nil, 0o644); err != nil {
			t.Error(err)
		}
		return stub{"replacement"}
	})
	if err != nil || len(exits) != 3 {
		t.Fatalf("Wait = %+v, %v; want the victim, the survivor and the replacement", exits, err)
	}
	for i, e := range exits {
		if victim := i == 0; victim != (e.Code == -1) || (!victim && e.Err() != nil) {
			t.Errorf("exit %d: %+v (%v)", i, e, e.Err())
		}
	}
	if last := exits[2]; last.Rank != 1 || last.Gen != 1 {
		t.Errorf("last exit is rank %d generation %d, want the replacement (rank 1, generation 1)", last.Rank, last.Gen)
	}
}

// TestMarkWatch: the supervisor watcher must count markers across write
// boundaries and wake waiters promptly.
func TestMarkWatch(t *testing.T) {
	w := newMarkWatch(": failed")
	w.Write([]byte("supervise: job x attempt 1: fai"))
	if w.Count() != 0 {
		t.Fatal("counted a split marker early")
	}
	done := make(chan bool, 1)
	go func() { done <- w.WaitAbove(0, 5*time.Second) }()
	w.Write([]byte("led: boom\nattempt 2: failed: again\n"))
	if !<-done {
		t.Fatal("waiter never woke")
	}
	if got := w.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if !w.WaitAbove(1, time.Millisecond) {
		t.Error("WaitAbove(1) should already be satisfied")
	}
	if w.WaitAbove(2, 10*time.Millisecond) {
		t.Error("WaitAbove(2) satisfied with only 2 markers")
	}
}
