package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"disjunct/internal/keyspace"
	"disjunct/internal/serve"
	"disjunct/internal/session"
)

// Warm joins. A node added to the ring cold re-pays every NP-oracle
// call for the keyspace slice it inherits — exactly the work the
// session/store layers exist to avoid. JoinNode therefore runs the
// drain handoff in reverse before the ring ever flips:
//
//  1. wait for the joiner's /readyz (its store prewarm must finish);
//  2. compute the slice the joiner WILL own on a hypothetical ring
//     (current members + joiner) — pure arithmetic, no ring mutation;
//  3. ask every live current member to export its warm artifacts and
//     verdict memos restricted to that slice (the ?ranges= form of
//     /v1/handoff/export), dedup across donors;
//  4. import the union into the joiner — the worker's import path
//     re-verifies fingerprints and fragments, and anything it rejects
//     is simply recomputed on first touch;
//  5. only then flip the ring (AddNode bumps the membership epoch) and
//     gossip the new epoch eagerly to peer routers.
//
// The gate ordering means a request can never be routed to the joiner
// before its prewarmed slice is in place: until step 5 the ring does
// not contain it. JoinStateReport's states ("waiting", "exporting",
// "importing", "flipped", "failed") are the closed join taxonomy.

// JoinReport summarizes one warm join.
type JoinReport struct {
	Node  string `json:"node"`
	State string `json:"state"` // terminal: "flipped" | "failed"
	Epoch uint64 `json:"epoch"` // membership epoch after the flip
	// Donors maps each exporting member to artifacts+verdicts it
	// contributed (pre-dedup).
	Donors map[string]int `json:"donors"`
	// Artifacts/Verdicts are the deduped counts shipped to the joiner;
	// ImportedArtifacts/ImportedVerdicts are what its import accepted
	// after fingerprint/fragment cross-checks.
	Artifacts         int `json:"artifacts"`
	Verdicts          int `json:"verdicts"`
	ImportedArtifacts int `json:"imported_artifacts"`
	ImportedVerdicts  int `json:"imported_verdicts"`
}

// Join states (the closed taxonomy; JoinReport.State holds a terminal
// one).
const (
	JoinStateWaiting   = "waiting"   // polling the joiner's /readyz
	JoinStateExporting = "exporting" // collecting donor slices
	JoinStateImporting = "importing" // shipping the union to the joiner
	JoinStateFlipped   = "flipped"   // ring updated; joiner live
	JoinStateFailed    = "failed"    // no ring change happened
)

// JoinNode warm-joins a worker into the cluster. On any failure before
// the flip the ring is untouched — a failed join leaves the cluster
// exactly as it was.
func (r *Router) JoinNode(ctx context.Context, baseURL string) (JoinReport, error) {
	name := strings.TrimSuffix(baseURL, "/")
	rep := JoinReport{Node: name, State: JoinStateFailed, Donors: map[string]int{}}
	if r.node(name) != nil {
		return rep, fmt.Errorf("cluster: %q is already a member", name)
	}

	// 1. The joiner must be ready (prewarmed from its own store, not
	// draining) before we ship state at it.
	rep.State = JoinStateWaiting
	if err := r.awaitReady(ctx, name); err != nil {
		rep.State = JoinStateFailed
		return rep, fmt.Errorf("cluster: joiner %q not ready: %w", name, err)
	}

	// 2. The joiner's future slice, computed on a hypothetical ring.
	// Sequence-consistency makes this exact: the keys the joiner will
	// own after the flip are precisely those whose owner on
	// (members ∪ {joiner}) is the joiner.
	members := r.ring.Members()
	hypo := NewRing(r.cfg.Replicas)
	hypo.SetMembers(append(append([]string{}, members...), name))
	future := hypo.OwnedRanges(name)

	// 3. Collect each live donor's intersection with that slice.
	rep.State = JoinStateExporting
	var union session.Handoff
	seenArt := map[string]bool{}
	seenVerd := map[string]bool{}
	for _, donor := range members {
		dn := r.node(donor)
		if dn == nil || dn.down.Load() {
			continue
		}
		h, err := r.exportRanges(ctx, dn, future)
		if err != nil {
			continue // a dead donor's keys are recomputed, never guessed
		}
		rep.Donors[donor] = len(h.Artifacts) + len(h.Verdicts)
		for _, a := range h.Artifacts {
			if !seenArt[a.Raw] {
				seenArt[a.Raw] = true
				union.Artifacts = append(union.Artifacts, a)
			}
		}
		for _, v := range h.Verdicts {
			k := v.Raw + "\x00" + v.Sem + "\x00" + v.MemoKey
			if !seenVerd[k] {
				seenVerd[k] = true
				union.Verdicts = append(union.Verdicts, v)
			}
		}
	}
	rep.Artifacts = len(union.Artifacts)
	rep.Verdicts = len(union.Verdicts)

	// 4. Import gates the flip: the joiner must have answered — an
	// unreachable joiner aborts with the ring untouched. A reachable
	// joiner that rejects some entries (fingerprint mismatch) is fine:
	// it recomputes those on first touch.
	rep.State = JoinStateImporting
	if rep.Artifacts+rep.Verdicts > 0 {
		ir, err := r.importHandoff(ctx, name, union)
		if err != nil {
			rep.State = JoinStateFailed
			return rep, fmt.Errorf("cluster: import into joiner %q: %w", name, err)
		}
		rep.ImportedArtifacts = ir.Artifacts
		rep.ImportedVerdicts = ir.Verdicts
		r.stats.joinArts.Add(int64(ir.Artifacts))
		r.stats.joinVerds.Add(int64(ir.Verdicts))
	}

	// 5. Flip and tell the peers.
	r.AddNode(name)
	rep.State = JoinStateFlipped
	rep.Epoch = r.epoch.Load()
	r.stats.joins.Add(1)
	r.gossipAll(ctx)
	return rep, nil
}

// awaitReady polls the node's /readyz until 200, the context dies, or
// the poll budget (20× probe interval) runs out.
func (r *Router) awaitReady(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 20*r.cfg.ProbeInterval)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := r.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(r.cfg.ProbeInterval / 5):
		}
	}
}

// exportRanges fetches one donor's warm state restricted to a keyspace
// slice.
func (r *Router) exportRanges(ctx context.Context, n *node, ranges keyspace.Ranges) (session.Handoff, error) {
	var h session.Handoff
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		n.url+"/v1/handoff/export?ranges="+ranges.String(), nil)
	if err != nil {
		return h, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.fail(n)
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("export: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&h); err != nil {
		return h, err
	}
	return h, nil
}

// importHandoff ships a handoff into a worker (by URL; the worker need
// not be a ring member yet).
func (r *Router) importHandoff(ctx context.Context, url string, h session.Handoff) (serve.HandoffImportResponse, error) {
	var ir serve.HandoffImportResponse
	payload, err := json.Marshal(h)
	if err != nil {
		return ir, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/handoff/import", bytes.NewReader(payload))
	if err != nil {
		return ir, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return ir, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ir, fmt.Errorf("import: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ir); err != nil {
		return ir, err
	}
	return ir, nil
}

// handleJoin is the HTTP form of JoinNode: POST /v1/cluster/join?node=<url>.
func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	target := req.URL.Query().Get("node")
	if target == "" {
		writeError(w, http.StatusBadRequest, serve.ErrorResponse{
			Error: serve.ReasonBadRequest, Detail: "missing ?node=<base url>",
		})
		return
	}
	rep, err := r.JoinNode(req.Context(), target)
	if err != nil {
		writeError(w, http.StatusConflict, serve.ErrorResponse{
			Error: serve.ReasonBadRequest, Detail: err.Error(),
		})
		return
	}
	data, _ := json.Marshal(rep)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
