package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"disjunct/internal/cluster"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/serve"
)

// ClusterCase is one (instance family × semantics) comparison of the
// same sequential workload driven through a 1-worker and a 3-worker
// in-process cluster (real HTTP through the consistent-hash router),
// plus the same 3-worker set behind TWO replicated routers with the
// requests alternating between them. runClusterSweep asserts that
// neither sharding nor router replication moves ANYTHING logical: the
// verdict vector and the summed NP-call total must be identical across
// all three deployments — consistent-hash routing pins each compiled
// DB to exactly one worker regardless of which router forwarded it, so
// its warm-session memo is exactly as warm as in the single-node
// deployment. Wall-clock is reported, never gated.
type ClusterCase struct {
	Name        string  `json:"name"`
	Semantics   string  `json:"semantics"`
	Queries     int     `json:"queries"`
	OneNP       int64   `json:"one_node_np_calls"`
	ThreeNP     int64   `json:"three_node_np_calls"`
	TwoRouterNP int64   `json:"two_router_np_calls"`
	OneMS       float64 `json:"one_node_ms"`
	ThreeMS     float64 `json:"three_node_ms"`
	TwoRouterMS float64 `json:"two_router_ms"`
}

// clusterNodes is the sharded side of the comparison.
const clusterNodes = 3

// driveCluster replays the family's literal workload (every atom, both
// polarities) through the router, strictly sequentially so neither the
// order of memo hits nor retry jitter can blur the oracle totals. With
// more than one URL the requests alternate round-robin across the
// routers — the replicated-routing side of the comparison. It returns
// the verdict vector and the summed NP-call count from the workers' own
// response counters.
func driveCluster(client *http.Client, urls []string, d *db.DB, semName string) ([]bool, int64, time.Duration, error) {
	var (
		verdicts []bool
		np       int64
	)
	t0 := time.Now()
	for a := 0; a < d.N(); a++ {
		for _, l := range []logic.Lit{logic.PosLit(logic.Atom(a)), logic.NegLit(logic.Atom(a))} {
			body, err := json.Marshal(serve.QueryRequest{
				Semantics: semName,
				DB:        d.String(),
				Literal:   d.Voc.LitString(l),
				Limits:    serve.LimitsJSON{DeadlineMS: 30_000},
			})
			if err != nil {
				return nil, 0, 0, err
			}
			resp, err := client.Post(urls[len(verdicts)%len(urls)]+"/v1/infer/literal", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, 0, 0, err
			}
			var qr serve.QueryResponse
			derr := json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if derr != nil {
				return nil, 0, 0, fmt.Errorf("decode %s: %v", d.Voc.LitString(l), derr)
			}
			if resp.StatusCode != http.StatusOK {
				return nil, 0, 0, fmt.Errorf("%s: status %d", d.Voc.LitString(l), resp.StatusCode)
			}
			if qr.Incomplete {
				return nil, 0, 0, fmt.Errorf("%s: incomplete (%s)", d.Voc.LitString(l), qr.CauseCode)
			}
			verdicts = append(verdicts, qr.Holds)
			np += qr.Counters.NPCalls
		}
	}
	return verdicts, np, time.Since(t0), nil
}

// runClusterSweep is the sharded-cluster section of RunParallel: the
// session sweep's instance families, each replayed through a 1-node
// and a 3-node cluster, with the sharding-moves-nothing invariant
// enforced inline. This is the benchgate "cluster" section's data.
func runClusterSweep(scale Scale, w io.Writer, rep *ParallelReport) error {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  sharded cluster (same sequential workload, 1 node vs %d nodes vs %d nodes + 2 routers):\n",
		clusterNodes, clusterNodes)
	fmt.Fprintf(w, "  %-14s %-5s %4s %8s %8s %8s %10s %10s %10s\n",
		"instance", "sem", "q", "NP-1", fmt.Sprintf("NP-%d", clusterNodes), "NP-2r",
		"1-node", fmt.Sprintf("%d-node", clusterNodes), "2-router")

	workerCfg := serve.Config{MaxConcurrent: 4, Sessions: true}
	one := cluster.StartLocal(1, workerCfg, cluster.RouterConfig{Seed: 1})
	defer one.Close()
	three := cluster.StartLocal(clusterNodes, workerCfg, cluster.RouterConfig{Seed: 1})
	defer three.Close()
	// The replicated deployment: a fresh worker set (so it starts as
	// cold as the others) behind two peered routers sharing one ring;
	// the workload alternates routers request by request.
	repl := cluster.StartLocal(clusterNodes, workerCfg, cluster.RouterConfig{Seed: 1})
	defer repl.Close()
	_, replPeer := repl.AddRouterPeer(cluster.RouterConfig{Seed: 2})
	replURLs := []string{repl.URL(), replPeer.URL}
	client := &http.Client{Timeout: 60 * time.Second}

	for _, fam := range sessionDBs(scale) {
		// Round-trip once so literal texts match the parse-order
		// vocabulary the workers build from the wire DB text.
		d, err := db.Parse(fam.db.String())
		if err != nil {
			return fmt.Errorf("cluster %s: round trip: %v", fam.name, err)
		}
		for _, semName := range fam.sems {
			oneV, oneNP, oneT, err := driveCluster(client, []string{one.URL()}, d, semName)
			if err != nil {
				return fmt.Errorf("cluster %s/%s: 1-node: %v", fam.name, semName, err)
			}
			threeV, threeNP, threeT, err := driveCluster(client, []string{three.URL()}, d, semName)
			if err != nil {
				return fmt.Errorf("cluster %s/%s: %d-node: %v", fam.name, semName, clusterNodes, err)
			}
			twoRV, twoRNP, twoRT, err := driveCluster(client, replURLs, d, semName)
			if err != nil {
				return fmt.Errorf("cluster %s/%s: 2-router: %v", fam.name, semName, err)
			}
			if len(oneV) != len(threeV) || len(oneV) != len(twoRV) {
				return fmt.Errorf("cluster %s/%s: verdict streams differ in length", fam.name, semName)
			}
			for i := range oneV {
				if oneV[i] != threeV[i] {
					return fmt.Errorf("cluster %s/%s: verdict %d diverged between cluster sizes", fam.name, semName, i)
				}
				if oneV[i] != twoRV[i] {
					return fmt.Errorf("cluster %s/%s: verdict %d diverged under router replication", fam.name, semName, i)
				}
			}
			if oneNP != threeNP {
				return fmt.Errorf("cluster %s/%s: sharding moved the NP total (1-node %d, %d-node %d)",
					fam.name, semName, oneNP, clusterNodes, threeNP)
			}
			if oneNP != twoRNP {
				return fmt.Errorf("cluster %s/%s: router replication moved the NP total (1-router %d, 2-router %d)",
					fam.name, semName, oneNP, twoRNP)
			}
			cc := ClusterCase{
				Name:        fam.name,
				Semantics:   semName,
				Queries:     len(oneV),
				OneNP:       oneNP,
				ThreeNP:     threeNP,
				TwoRouterNP: twoRNP,
				OneMS:       float64(oneT.Microseconds()) / 1e3,
				ThreeMS:     float64(threeT.Microseconds()) / 1e3,
				TwoRouterMS: float64(twoRT.Microseconds()) / 1e3,
			}
			rep.Cluster = append(rep.Cluster, cc)
			fmt.Fprintf(w, "  %-14s %-5s %4d %8d %8d %8d %10s %10s %10s\n",
				cc.Name, cc.Semantics, cc.Queries, cc.OneNP, cc.ThreeNP, cc.TwoRouterNP,
				fmtDuration(oneT), fmtDuration(threeT), fmtDuration(twoRT))
		}
	}
	return nil
}
