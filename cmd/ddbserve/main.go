// Command ddbserve runs the disjunctive-database inference service:
// HTTP/JSON literal-inference, formula-inference, and model-existence
// queries over every registered semantics, behind a bounded admission
// queue, per-semantics circuit breakers, server-side budget ceilings,
// and a graceful SIGTERM/SIGINT drain.
//
// Exit status is 0 after a clean drain (all in-flight work finished
// inside the drain deadline) and 1 after a forced drain (the deadline
// expired and stragglers were interrupted with typed budget cancels).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/serve"
	"disjunct/internal/store"

	_ "disjunct/internal/semantics/all"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8091", "listen address")
		maxConcurrent = flag.Int("maxconcurrent", 0, "max queries solving at once (0 = GOMAXPROCS)")
		queueDepth    = flag.Int("queue", 0, "admission queue depth beyond the concurrency limit (0 = 8×concurrency)")
		drainTimeout  = flag.Duration("draintimeout", 5*time.Second, "grace period for in-flight work on SIGTERM")
		retryMax      = flag.Int("retrymax", 2, "max server-side retries of transient-class oracle failures")
		deadlineCap   = flag.Duration("deadlinecap", 30*time.Second, "ceiling on per-request deadlines (0 = unlimited)")
		conflictCap   = flag.Int64("conflictcap", 0, "ceiling on per-request conflict budgets (0 = unlimited)")
		propCap       = flag.Int64("propcap", 0, "ceiling on per-request propagation budgets (0 = unlimited)")
		npCap         = flag.Int64("npcallcap", 0, "ceiling on per-request NP-call budgets (0 = unlimited)")
		brkThreshold  = flag.Int("breakerthreshold", 5, "consecutive infrastructure failures that open a breaker (0 disables)")
		brkCooldown   = flag.Duration("breakercooldown", time.Second, "open-breaker cooldown before the half-open probe")
		faultRate     = flag.Float64("faultrate", 0, "injected oracle fault probability (chaos mode)")
		faultSeed     = flag.Int64("faultseed", 1, "fault injection seed")
		sessions      = flag.Bool("sessions", false, "enable warm query sessions: compiled-DB cache, verdict memo, fragment fast paths, warm incremental solvers")
		sessBytes     = flag.Int64("sessionbytes", 0, "compiled-DB cache byte budget (0 = 64 MiB default)")
		sessMax       = flag.Int("sessionmax", 0, "max resident warm sessions, one per (database, semantics) pair (0 = default 64)")
		sessQueries   = flag.Int("sessionqueries", 0, "warm solves before a database's engine is retired (0 = default 512)")
		sessWindow    = flag.Duration("sessionwindow", 0, "micro-batch wait for a busy session before falling back fresh (0 = default 2ms)")
		batchMax      = flag.Int("batchmax", 0, "max queries per /v1/batch request (0 = default 256)")
		streamMax     = flag.Int("streammax", 0, "server-side cap on models per /v1/models/stream request (0 = uncapped)")
		storeDir      = flag.String("store", "", "persistent compiled-artifact & verdict store directory (implies -sessions; empty = no persistence)")
		storeBytes    = flag.Int64("storebytes", 0, "store log-size budget before compaction (0 = default 256 MiB)")
		planner       = flag.Bool("planner", false, "enable the cost-based query planner: cost-class routing to one of four procedures (fast, warm, brute, fresh), cost-aware shedding (implies -sessions)")
		planBrute     = flag.Int("planbruteatoms", 0, "planner: max atoms for the brute-force refsem procedure (0 = default 8)")
		planNP        = flag.Int64("planexpnp", 0, "planner: mean NP-call estimate marking a query expensive (0 = default 8)")
		planOcc       = flag.Float64("planshedocc", 0, "planner: queue occupancy fraction above which cost-aware shedding engages (0 = default 0.5)")
	)
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var rec store.Recovery
		var err error
		st, rec, err = store.Open(store.Config{Dir: *storeDir, MaxBytes: *storeBytes})
		if err != nil {
			log.Fatalf("ddbserve: store recovery error: %v", err)
		}
		if rec.TornTail {
			log.Printf("ddbserve: store: truncated torn tail (%d bytes) — crash recovery, re-deriving dropped entries on demand", rec.Dropped)
		}
		log.Printf("ddbserve: store: recovered %d artifacts, %d verdicts from %s",
			rec.Artifacts, rec.Verdicts, *storeDir)
	}

	srv := serve.New(serve.Config{
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		DrainTimeout:  *drainTimeout,
		RetryMax:      *retryMax,
		Ceilings: budget.Limits{
			Deadline:     *deadlineCap,
			Conflicts:    *conflictCap,
			Propagations: *propCap,
			NPCalls:      *npCap,
		},
		Breaker:              serve.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
		FaultRate:            *faultRate,
		FaultSeed:            *faultSeed,
		Sessions:             *sessions,
		SessionCacheBytes:    *sessBytes,
		SessionMaxSessions:   *sessMax,
		SessionMaxQueries:    *sessQueries,
		SessionBatchWindow:   *sessWindow,
		BatchMaxQueries:      *batchMax,
		StreamMaxModels:      *streamMax,
		Store:                st,
		Planner:              *planner,
		PlannerBruteAtoms:    *planBrute,
		PlannerExpensiveNP:   *planNP,
		PlannerShedOccupancy: *planOcc,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ddbserve: listen %s: %v", *addr, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	log.Printf("ddbserve: listening on http://%s (faultrate=%g drain=%s sessions=%v store=%q planner=%v)", ln.Addr(), *faultRate, *drainTimeout, *sessions || st != nil || *planner, *storeDir, *planner)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case s := <-sig:
		log.Printf("ddbserve: %v: draining (deadline %s)", s, *drainTimeout)
	case err := <-serveErr:
		log.Fatalf("ddbserve: serve: %v", err)
	}

	// Stop accepting new connections first, then drain the query layer.
	// Shutdown's context bounds only the listener teardown; the query
	// drain deadline is the server's own DrainTimeout.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *drainTimeout+time.Second)
	defer shutCancel()
	drainErr := srv.Drain(context.Background())
	_ = hs.Shutdown(shutCtx)

	if drainErr != nil {
		if errors.Is(drainErr, serve.ErrDrainForced) {
			fmt.Fprintln(os.Stderr, "ddbserve: forced drain: in-flight work interrupted with typed cancels")
			os.Exit(1)
		}
		log.Fatalf("ddbserve: drain: %v", drainErr)
	}
	if st != nil {
		fst := st.Stats()
		log.Printf("ddbserve: store flushed on drain (%d artifacts, %d verdicts, %d bytes)",
			fst.Artifacts, fst.Verdicts, fst.SizeBytes)
	}
	log.Printf("ddbserve: clean drain, bye")
}
