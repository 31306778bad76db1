package spsc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {1000, 1024},
	} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestFIFOSingleThreaded(t *testing.T) {
	r := New[int](4)
	done := make(chan struct{})
	if _, ok := r.TryPop(); ok {
		t.Fatal("TryPop on empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("TryPush(%d) failed below capacity", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("TryPush succeeded on a full ring")
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		v, err := r.Pop(done)
		if err != nil || v != i {
			t.Fatalf("Pop = %d, %v; want %d, nil", v, err, i)
		}
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
}

// TestFIFOProperty is the quick-check: for any (capacity, count) the ring
// delivers exactly the pushed sequence, through the non-blocking push.
func TestFIFOProperty(t *testing.T) {
	f := func(capRaw uint8, countRaw uint16) bool {
		capacity := int(capRaw%64) + 1
		count := int(countRaw % 4096)
		r := New[int](capacity)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < count; i++ {
				for !r.TryPush(i) {
					runtime.Gosched()
				}
			}
		}()
		ok := true
		for i := 0; i < count; i++ {
			v, err := r.Pop(done)
			if err != nil || v != i {
				ok = false
				break
			}
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHammerConcurrentPushPop is the -race hammer: a producer and a
// consumer run flat out through a small ring (maximizing wrap-arounds and
// full/empty transitions, so both park paths are exercised), and the
// sequence must come out intact.
func TestHammerConcurrentPushPop(t *testing.T) {
	const n = 200000
	r := New[int](4)
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := r.Push(i, done); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < n; i++ {
		v, err := r.Pop(done)
		if err != nil {
			t.Fatalf("Pop(%d): %v", i, err)
		}
		if v != i {
			t.Fatalf("Pop = %d, want %d (FIFO violated)", v, i)
		}
	}
	if err := <-errs; err != nil {
		t.Fatalf("producer: %v", err)
	}
}

// TestAbortReleasesParkedSides closes done mid-stream and requires both a
// parked producer (full ring) and a parked consumer (empty ring) to return
// ErrDone promptly.
func TestAbortReleasesParkedSides(t *testing.T) {
	// Parked producer: fill the ring, then push once more.
	r := New[int](2)
	done := make(chan struct{})
	for r.TryPush(0) {
	}
	pushed := make(chan error, 1)
	go func() { pushed <- r.Push(99, done) }()
	time.Sleep(10 * time.Millisecond) // let it pass the spin phase and park
	close(done)
	select {
	case err := <-pushed:
		if err != ErrDone {
			t.Fatalf("parked Push returned %v, want ErrDone", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Push not released by done")
	}

	// Parked consumer: empty ring.
	r2 := New[int](2)
	done2 := make(chan struct{})
	popped := make(chan error, 1)
	go func() {
		_, err := r2.Pop(done2)
		popped <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(done2)
	select {
	case err := <-popped:
		if err != ErrDone {
			t.Fatalf("parked Pop returned %v, want ErrDone", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Pop not released by done")
	}
}

// TestAbortMidStreamUnderLoad aborts while a push/pop hammer is in full
// flight; both sides must unwind without deadlock and without the race
// detector firing. As with fg's queues, done releases *blocked* operations
// — a side that never blocks must watch done itself, as fg's source does —
// so the loops here check it between operations.
func TestAbortMidStreamUnderLoad(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := New[int](8)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := r.Push(i, done); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			prev := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := r.Pop(done)
				if err != nil {
					return
				}
				if v != prev+1 {
					t.Errorf("trial %d: got %d after %d", trial, v, prev)
					return
				}
				prev = v
			}
		}()
		time.Sleep(time.Duration(trial) * 100 * time.Microsecond)
		close(done)
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: goroutines not released after abort", trial)
		}
	}
}

// TestPointerSlotsAreCleared checks popped slots drop their references so
// the ring does not pin dead buffers.
func TestPointerSlotsAreCleared(t *testing.T) {
	r := New[*int](2)
	v := new(int)
	r.TryPush(v)
	r.TryPop()
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d still holds a reference after pop", i)
		}
	}
}
