package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"disjunct/internal/serve"
)

// Router replication. N routers share one ring by gossiping
// epoch-tagged membership and node-health hints; there is no leader
// and no consensus round. Correctness rests on two facts: (1) the
// membership Merge is a join-semilattice (monotonic epoch wins, hash
// tie-break), so every router converges to the same member set under
// any gossip delivery order, duplication, or loss-then-retry; and
// (2) routers are stateless — a router with a stale ring still
// produces correct verdicts, it just routes some keys to a node that
// no longer (or does not yet) hold their warm state, costing cache
// misses, never wrong answers.
//
// Each exchange is push-pull: the initiator POSTs its GossipState, the
// receiver merges and replies with its own, and the initiator merges
// the reply. One-sided peering therefore suffices for convergence —
// the second router of a pair need not list the first.
//
// Health hints ride along so a router that just adopted a new member
// routes sensibly before its first firsthand probe. Firsthand beats
// secondhand: gossiped down/draining/breaker state is applied only to
// nodes this router has never probed itself (probed == false).

// NodeGossip is one worker's health hint inside a gossip message.
type NodeGossip struct {
	Down         bool     `json:"down"`
	Draining     bool     `json:"draining"`
	OpenBreakers []string `json:"open_breakers,omitempty"`
}

// GossipState is the gossip wire document: the sender's epoch-tagged
// membership plus its current health view.
type GossipState struct {
	Epoch   uint64                `json:"epoch"`
	Members []string              `json:"members"`
	Health  map[string]NodeGossip `json:"health,omitempty"`
}

// decodeGossip reads one gossip document, capped at 1 MiB, from a
// peer's request or reply body.
func decodeGossip(body io.Reader) (GossipState, error) {
	var gs GossipState
	err := json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&gs)
	return gs, err
}

// gossipState snapshots this router's gossip document.
func (r *Router) gossipState() GossipState {
	m := r.membership()
	gs := GossipState{Epoch: m.Epoch, Members: m.Members, Health: map[string]NodeGossip{}}
	r.nodeMu.RLock()
	for name, n := range r.nodes {
		if !n.probed.Load() {
			continue // only gossip firsthand knowledge
		}
		gs.Health[name] = NodeGossip{
			Down:         n.down.Load(),
			Draining:     n.draining.Load(),
			OpenBreakers: n.openBreakerList(),
		}
	}
	r.nodeMu.RUnlock()
	return gs
}

// mergeGossip folds a peer's state into this router: membership via
// the semilattice merge, health hints only onto never-probed nodes.
func (r *Router) mergeGossip(in GossipState) {
	r.stats.gossipRecv.Add(1)
	r.adoptMembership(Membership{Epoch: in.Epoch, Members: in.Members})
	for name, hint := range in.Health {
		n := r.node(name)
		if n == nil || n.probed.Load() {
			continue
		}
		// Secondhand fill-in for a node we have no firsthand view of.
		// probed stays false: the next local probe overwrites all of it.
		n.down.Store(hint.Down)
		n.draining.Store(hint.Draining)
		open := make(map[string]bool, len(hint.OpenBreakers))
		for _, sem := range hint.OpenBreakers {
			open[sem] = true
		}
		n.setOpenBreakers(open)
	}
}

// handleGossip is POST /v1/cluster/gossip: merge the sender's state,
// reply with our own (post-merge, so the initiator sees the winner).
func (r *Router) handleGossip(w http.ResponseWriter, req *http.Request) {
	in, err := decodeGossip(req.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, serve.ErrorResponse{
			Error: serve.ReasonBadRequest, Detail: "gossip body: " + err.Error(),
		})
		return
	}
	r.mergeGossip(in)
	data, _ := json.Marshal(r.gossipState())
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// gossipOnce runs one push-pull exchange with a peer.
func (r *Router) gossipOnce(ctx context.Context, peer string) {
	r.stats.gossipSent.Add(1)
	payload, err := json.Marshal(r.gossipState())
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, r.cfg.GossipInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/cluster/gossip", bytes.NewReader(payload))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return // unreachable peer: retried next round, convergence only delayed
	}
	reply, decErr := decodeGossip(resp.Body)
	resp.Body.Close()
	if decErr != nil || resp.StatusCode != http.StatusOK {
		return
	}
	r.mergeGossip(reply)
}

// gossipAll runs one exchange with every peer — called eagerly after a
// membership mutation so joins and drains propagate in one round trip
// instead of a gossip period.
func (r *Router) gossipAll(ctx context.Context) {
	for _, p := range r.Peers() {
		r.gossipOnce(ctx, p)
	}
}

// gossipLoop drives the periodic anti-entropy exchanges, jittered per
// (seed, peer) with the same discipline as the probe schedule.
func (r *Router) gossipLoop() {
	defer r.probeWG.Done()
	t := time.NewTimer(0)
	if !t.Stop() {
		<-t.C
	}
	for round := uint64(0); ; round++ {
		t.Reset(ProbeDelay(r.cfg.Seed, "gossip", round, r.cfg.GossipInterval))
		select {
		case <-r.stopped:
			t.Stop()
			return
		case <-t.C:
		}
		r.gossipAll(context.Background())
	}
}
