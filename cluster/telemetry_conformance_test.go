package cluster

// Telemetry-plane contract tests, run per backend from the transport
// conformance table: control-tag frames are FIFO-independent of data
// traffic, never block behind a full per-peer backpressure budget, and are
// cleanly released on abort and shutdown. These drive
// Transport.DeliverControl directly because an all-local cluster's
// publisher short-circuits to the aggregator without touching the wire.

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// conformTelemetryBackpressure: with the data path saturated — a sender
// parked on a full mailbox and an exhausted in-flight budget — a telemetry
// control frame still goes through, promptly, and reaches the aggregator.
// This is the plane's core promise: a fleet drowning in backpressure still
// reports.
func conformTelemetryBackpressure(t *testing.T, kind string) {
	c := openConformance(t, kind, 2, 1, 64)
	tel, err := c.StartTelemetry(TelemetryConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the data path 0->1: nobody receives, so the sender parks on
	// backpressure and stays parked until the abort at the end.
	released := make(chan struct{})
	go func() {
		defer close(released)
		expectAbortErr(t, "blocked data send", func() {
			n := c.Node(0)
			payload := make([]byte, 1024)
			for {
				n.Send(1, 9, payload)
			}
		})
	}()
	time.Sleep(100 * time.Millisecond)

	// Ship a telemetry record 1->0 over the control path the way a remote
	// publisher would. Every DeliverControl call must return promptly —
	// refusing (TCP control connection still dialing) is allowed, blocking
	// is not.
	rec := RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 1 << 40, Body: json.RawMessage(`"conformance"`)}
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	f := Frame{Src: 1, Dst: 0, Tag: telemetryTag, Data: data}
	deadline := time.Now().Add(10 * time.Second)
	for {
		start := time.Now()
		err := c.transport.DeliverControl(f)
		if blocked := time.Since(start); blocked > 2*time.Second {
			t.Fatalf("DeliverControl blocked %v behind data backpressure", blocked)
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("control frame never delivered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The frame must reach the aggregator despite the saturated data path.
	agg := tel.Aggregator()
	ingestDeadline := time.Now().Add(5 * time.Second)
	for {
		_, ranks := agg.Status()
		if rs := ranks[1]; rs.Reported && rs.Record.Seq == 1<<40 {
			if string(rs.Record.Body) != `"conformance"` {
				t.Fatalf("record corrupted: body %s", rs.Record.Body)
			}
			break
		}
		if time.Now().After(ingestDeadline) {
			t.Fatal("control frame delivered but never ingested by the aggregator")
		}
		time.Sleep(5 * time.Millisecond)
	}

	c.Abort()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not release the blocked data sender")
	}
}

// conformTelemetryAbort: an aborted job stops the control loop promptly, and
// the aggregator's last fleet view survives, marked aborted — the evidence
// outlives the job.
func conformTelemetryAbort(t *testing.T, kind string) {
	c := openConformance(t, kind, 2, 0, 0)
	tel, err := c.StartTelemetry(TelemetryConfig{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tel.Published() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("publisher never shipped a record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Abort()
	select {
	case <-c.health.done:
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not stop the control loop")
	}
	st, ranks := tel.Aggregator().Status()
	if !st.Aborted {
		t.Fatal("fleet view does not mark the job aborted")
	}
	if !ranks[0].Reported {
		t.Fatal("aggregator lost its records on abort")
	}
}

// conformTelemetryShutdown: rank 1's stall black box reaches the aggregator
// on the record that first gets through, and Close with the plane active
// leaves no cluster goroutine running. On TCP rank 1 is hosted by a second
// cluster, so its first record is refused while the control connection
// dials and a later one must carry the box.
func conformTelemetryShutdown(t *testing.T, kind string) {
	before := countClusterGoroutines()
	var clusters []*Cluster // clusters[0] hosts the aggregator
	if kind == TransportTCP {
		c0, c1 := openTCPPair(t, HealthConfig{})
		clusters = []*Cluster{c0, c1}
	} else {
		clusters = []*Cluster{openConformance(t, kind, 2, 0, 0)}
	}
	var boxes atomic.Int64
	cfg := TelemetryConfig{
		Interval: 2 * time.Millisecond,
		Collect: func(rank int) (json.RawMessage, int64) {
			if rank == 1 {
				return nil, 42
			}
			return nil, 0
		},
		Blackbox: func(w io.Writer) error {
			boxes.Add(1)
			_, err := io.WriteString(w, "bb")
			return err
		},
	}
	var agg *TelemetryAggregator
	for i, c := range clusters {
		tel, err := c.StartTelemetry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			agg = tel.Aggregator()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := agg.StallBlackbox(1); err == nil {
			if string(data) != "bb" {
				t.Fatalf("stall blackbox %q, want %q", data, "bb")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 1's stall blackbox never reached the aggregator")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// In one process the first record is ingested directly, so the box is
	// captured once; across two, the first record was refused.
	oneProcess := len(clusters) == 1
	if n := boxes.Load(); oneProcess && n != 1 || !oneProcess && n < 2 {
		t.Fatalf("box captured %d times across %d process(es)", n, len(clusters))
	}
	for _, c := range clusters {
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := countClusterGoroutines(); n <= before {
			return
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("telemetry goroutines leaked after Close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
