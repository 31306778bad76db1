package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// startTestTelemetry opens an all-local inproc cluster with the telemetry
// plane running and the aggregator on rank 0.
func startTestTelemetry(t *testing.T, nodes int, cfg TelemetryConfig) (*Cluster, *Telemetry) {
	t.Helper()
	c, err := Open(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	tel, err := c.StartTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tel == nil {
		t.Fatal("StartTelemetry returned nil with a positive interval")
	}
	return c, tel
}

// TestTelemetryDisabled: a zero config is free — no plane, and every method
// of the nil *Telemetry is a safe no-op.
func TestTelemetryDisabled(t *testing.T) {
	c, err := Open(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tel, err := c.StartTelemetry(TelemetryConfig{})
	if err != nil || tel != nil {
		t.Fatalf("zero config: got (%v, %v), want (nil, nil)", tel, err)
	}
	if c.Telemetry() != nil {
		t.Fatal("cluster reports a telemetry plane that was never started")
	}
	var nilTel *Telemetry
	if nilTel.Aggregator() != nil || nilTel.Published() != 0 {
		t.Fatal("nil Telemetry methods are not no-ops")
	}
	nilTel.stop()
}

// TestTelemetryDoubleStart: a second StartTelemetry is rejected.
func TestTelemetryDoubleStart(t *testing.T) {
	c, _ := startTestTelemetry(t, 2, TelemetryConfig{Interval: time.Hour})
	if _, err := c.StartTelemetry(TelemetryConfig{Interval: time.Hour}); err == nil {
		t.Fatal("second StartTelemetry succeeded")
	}
}

// TestTelemetryPublishesAllRanks: within a startup interval every local
// rank's record reaches the aggregator — the cluster's own envelope around
// the Collect callback's body, which the plane carries verbatim and never
// reads.
func TestTelemetryPublishesAllRanks(t *testing.T) {
	const P = 4
	_, tel := startTestTelemetry(t, P, TelemetryConfig{
		Interval: 5 * time.Millisecond,
		Collect: func(rank int) (json.RawMessage, int64) {
			return json.RawMessage(fmt.Sprintf(`{"opaque":%d}`, rank)), 0
		},
	})
	agg := tel.Aggregator()
	if agg == nil {
		t.Fatal("aggregator rank 0 is local but Aggregator() is nil")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ranks := agg.Status()
		reported := 0
		for _, rs := range ranks {
			if rs.Reported {
				reported++
			}
		}
		if reported == P {
			if st.P != P || st.AggregatorRank != 0 || st.V != TelemetryVersion || len(ranks) != P {
				t.Fatalf("status header %+v over %d ranks", st, len(ranks))
			}
			for r, rs := range ranks {
				want := fmt.Sprintf(`{"opaque":%d}`, r)
				if rs.Rank != r || rs.Stale || rs.Record.Rank != r || rs.Record.Seq == 0 || string(rs.Record.Body) != want {
					t.Fatalf("rank %d entry %+v with body %s, want fresh with body %s", r, rs, rs.Record.Body, want)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d ranks reported", reported, P)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if tel.Published() == 0 {
		t.Fatal("Published() == 0 after records arrived")
	}
}

// TestTelemetryVersionSkew: an inbound record of any other wire version —
// newer or older — is dropped and counted, never ingested: mixed fleets
// degrade to staleness, not misdecoding (an older body would decode as an
// empty, fresh-looking entry). Undecodable frames count the same way.
func TestTelemetryVersionSkew(t *testing.T) {
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{Interval: time.Hour})
	for _, v := range []int{TelemetryVersion + 1, TelemetryVersion - 1} {
		data, err := json.Marshal(&RankTelemetry{V: v, Rank: 1, Seq: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		tel.deliver(Frame{Src: 1, Dst: 0, Tag: telemetryTag, Data: data})
	}
	tel.deliver(Frame{Src: 1, Dst: 0, Tag: telemetryTag, Data: []byte("not json")})
	st, ranks := tel.Aggregator().Status()
	if got := tel.decodeErrs.Load(); got != 3 || st.DecodeErrors != 3 {
		t.Fatalf("decodeErrs = %d (status says %d), want 3", got, st.DecodeErrors)
	}
	if rs := ranks[1]; rs.Reported && rs.Record.Seq == 1<<40 { // the plane's own first publish may have reported
		t.Fatal("a record of another version was ingested")
	}
}

// TestTelemetryStaleness: a record's age is measured against the
// aggregator's own arrival clock, and past StaleAfter the rank reads stale
// — degradation, not failure.
func TestTelemetryStaleness(t *testing.T) {
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{
		Interval:   time.Hour,
		StaleAfter: 50 * time.Millisecond,
	})
	agg := tel.Aggregator()
	agg.ingestRecord(RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 1 << 40}, time.Now().Add(-time.Minute))
	_, ranks := agg.Status()
	if rs := ranks[1]; !rs.Reported || !rs.Stale || rs.AgeNS < int64(50*time.Millisecond) {
		t.Fatalf("rank 1 status {reported:%v stale:%v age:%v}, want reported and stale",
			rs.Reported, rs.Stale, time.Duration(rs.AgeNS))
	}
}

// TestTelemetrySeqRegression: an out-of-order record (smaller Seq) never
// replaces a fresher one.
func TestTelemetrySeqRegression(t *testing.T) {
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{Interval: time.Hour})
	agg := tel.Aggregator()
	now := time.Now()
	agg.ingestRecord(RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 1000, Body: json.RawMessage(`"new"`)}, now)
	agg.ingestRecord(RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 999, Body: json.RawMessage(`"old"`)}, now)
	if _, ranks := agg.Status(); string(ranks[1].Record.Body) != `"new"` {
		t.Fatalf("stale record replaced fresh one: body %s", ranks[1].Record.Body)
	}
}

// TestTelemetryStallShipsBlackbox: the first record of a stall episode
// carries the rank's black box, once per episode however often the episode
// is re-reported; a newer episode's box replaces it; a rank that never
// stalled has none; and the retained records never hold the bytes.
func TestTelemetryStallShipsBlackbox(t *testing.T) {
	var stallAt, boxes atomic.Int64
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{
		Interval: time.Millisecond,
		Collect: func(rank int) (json.RawMessage, int64) {
			if rank == 0 {
				return nil, stallAt.Load()
			}
			return nil, 0
		},
		Blackbox: func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "box-%d", boxes.Add(1))
			return err
		},
	})
	agg := tel.Aggregator()
	// episode stamps a stall on rank 0 and waits until at least ten records
	// of it have been ingested.
	episode := func(at int64) {
		t.Helper()
		stallAt.Store(at)
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ranks := agg.Status(); ranks[0].Reported && ranks[0].Record.StallAt == at {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("episode %d never reached the aggregator", at)
			}
			time.Sleep(time.Millisecond)
		}
		for from := tel.Published(); tel.Published() < from+20; {
			if time.Now().After(deadline) {
				t.Fatal("the publisher stopped re-reporting the episode")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, at := range []int64{1000, 2000} {
		episode(at)
		want := fmt.Sprintf("box-%d", i+1)
		if n := boxes.Load(); n != int64(i+1) {
			t.Fatalf("after episode %d: %d boxes shipped, want %d", i+1, n, i+1)
		}
		if data, err := agg.StallBlackbox(0); err != nil || string(data) != want {
			t.Fatalf("after episode %d: stall blackbox %q, %v; want %q", i+1, data, err, want)
		}
	}
	if _, err := agg.StallBlackbox(1); err == nil {
		t.Fatal("StallBlackbox for a rank with no stall succeeded")
	}
	_, ranks := agg.Status()
	for _, rs := range ranks {
		if rs.Record.Blackbox != nil {
			t.Fatalf("rank %d: the retained record holds %d black-box bytes", rs.Rank, len(rs.Record.Blackbox))
		}
	}
}
