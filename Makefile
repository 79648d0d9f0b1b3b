# disjunct — build/test/bench entry points.

GO ?= go
# Mirrored by ci.yml's STATICCHECK_VERSION — bump both together.
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: all build test vet lint race bench report report-full soak chaos fuzz serve-smoke restart-smoke cluster-smoke churn-smoke clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting + vet + staticcheck (staticcheck fetched pinned, on demand).
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One testing.B target per table cell + ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation (quick sweeps).
report:
	$(GO) run ./cmd/ddbbench

# Report-scale sweeps + structural audit (exits nonzero on violation).
report-full:
	$(GO) run ./cmd/ddbbench -full

# Bounded differential soak (nightly CI runs 20k iterations).
soak:
	$(GO) run ./cmd/ddbsoak -iters 2000 -v

# Bounded chaos soak: budgets + deadline + seeded fault injection,
# planner-routed verdicts cross-checked against the brute-force
# references, plus a membership-churn sweep (seeded joins/drains/kills
# mid-load).
# Fails on silent corruption, untyped interruptions, or goroutine leaks.
chaos:
	$(GO) run ./cmd/ddbsoak -iters 1000 -faultrate 0.05 -deadline 2s -conflictbudget 200 -servefrac 0.3 -sessionfrac 0.3 -planfrac 0.3 -churnfrac 0.02 -v

# End-to-end service smoke: real binaries, offered load above the
# admission limit, 5% injected faults, SIGTERM drain. Fails on untyped
# outcomes, verdict divergence, goroutine leaks, or a dirty drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# Crash-recovery smoke of the persistent store: storeless reference
# recording, a store-backed server SIGKILLed mid-load, pre-warmed
# restart replaying identical verdicts. Also runs as the fourth pass
# of serve-smoke.
restart-smoke:
	sh scripts/restart_smoke.sh

# Sharded-cluster smoke: ddbrouter + three ddbserve workers, a SIGKILL
# of the warmest worker mid-load (>=95% failover completion enforced),
# a graceful drain with warm-state handoff, clean SIGTERMs.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Elastic-membership smoke: two replicated routers + three workers, a
# 4th worker warm-joined mid-load (zero cold compiles on its prewarmed
# slice), one router SIGKILLed under the client (>=95% completion
# enforced), a graceful worker drain, clean SIGTERMs.
churn-smoke:
	sh scripts/churn_smoke.sh

fuzz:
	$(GO) test -fuzz=FuzzParseDB -fuzztime=30s .
	$(GO) test -fuzz=FuzzParseFormula -fuzztime=30s .
	$(GO) test -fuzz=FuzzParseProgram -fuzztime=30s .
	$(GO) test -fuzz=FuzzStoreRecover -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzHandoffImport -fuzztime=30s ./internal/session
	$(GO) test -fuzz=FuzzPrefixRestore -fuzztime=30s ./internal/sat
	$(GO) test -fuzz=FuzzPWSRefsem -fuzztime=30s ./internal/semantics/pws
	$(GO) test -fuzz=FuzzPDSMRefsem -fuzztime=30s ./internal/semantics/pdsm
	$(GO) test -fuzz=FuzzServeQuery -fuzztime=30s ./internal/serve

clean:
	$(GO) clean ./...
