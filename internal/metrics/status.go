package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// The live status routes. Where /metrics serves flat samples for a scraper,
// /status answers the operator's question directly: which stages are
// running, which are blocked, what governs the wall clock right now, and
// which peers went quiet. Both views read the same lock-free counters Stats
// reads, so hitting them mid-run costs the run nothing.

// peerDoc is one cluster peer's liveness in /status.json.
type peerDoc struct {
	Rank int `json:"rank"`
	// LastSeenAge is how long ago the peer's last heartbeat arrived.
	LastSeenAge time.Duration `json:"last_seen_age_ns"`
	// Monitored reports whether the peer is a death-detection candidate on
	// this process; unmonitored peers are this process's own ranks.
	Monitored bool `json:"monitored"`
	Suspect   bool `json:"suspect,omitempty"`
	Dead      bool `json:"dead,omitempty"`
}

// statusDoc is the /status.json document; Peers is empty until a
// peer-health source is registered.
type statusDoc struct {
	Networks []fg.NetworkStatus `json:"networks"`
	Peers    []peerDoc          `json:"peers"`
}

// status builds the document: one status per registered network, and the
// peer source's snapshot aged against now.
func (r *Registry) status() statusDoc {
	r.mu.Lock()
	nets, source := append([]*fg.Network(nil), r.nets...), r.peers
	r.mu.Unlock()
	doc := statusDoc{Networks: make([]fg.NetworkStatus, len(nets)), Peers: []peerDoc{}}
	for i, nw := range nets {
		doc.Networks[i] = nw.Status()
	}
	var peers []cluster.PeerStatus
	if source != nil {
		peers = source()
	}
	now := time.Now()
	for _, p := range peers {
		doc.Peers = append(doc.Peers, peerDoc{
			Rank:        p.Rank,
			LastSeenAge: now.Sub(p.LastSeen),
			Monitored:   p.Monitored,
			Suspect:     p.Suspect,
			Dead:        p.Dead,
		})
	}
	return doc
}

// serveStatusJSON serves every registered network's status as JSON, for
// dashboards and scripts: an object with "networks" and "peers" sections.
func (r *Registry) serveStatusJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(r.status())
}

// serveStatusText serves the same document as plain text, for curl and
// humans. The peers follow the networks whether or not any network is
// registered: a peer can die before the first pass starts.
func (r *Registry) serveStatusText(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	doc := r.status()
	if len(doc.Networks) == 0 {
		fmt.Fprintln(w, "(no networks registered)")
	}
	for _, s := range doc.Networks {
		fmt.Fprint(w, s.String())
	}
	for _, p := range doc.Peers {
		state := "ok"
		switch {
		case p.Dead:
			state = "dead"
		case p.Suspect:
			state = "suspect"
		case !p.Monitored:
			state = "local"
		}
		fmt.Fprintf(w, "peer %d: %-7s last heartbeat %v ago\n",
			p.Rank, state, p.LastSeenAge.Round(time.Millisecond))
	}
}
