GO ?= go

.PHONY: build test test-alloc bench bench-json lint figures campaign campaign-ccr explore check-docs validate-scenarios

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Allocation budgets skip under -race (the detector itself allocates), so
# they get a dedicated non-race invocation.
test-alloc:
	$(GO) test -run Alloc ./internal/sim ./internal/simnet ./internal/mpi ./internal/replication ./internal/core ./internal/fault ./internal/store ./internal/jobstream ./internal/experiments

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-json runs the substrate micro benchmarks at a real benchtime plus
# the campaign-scale macro benchmarks, and writes BENCH_sim.json at the
# repo root (the tracked perf trajectory; CI uploads it as an artifact).
bench-json:
	$(GO) run ./cmd/bench -out BENCH_sim.json $(BENCHFLAGS)

lint:
	$(GO) vet ./...
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:" $$files; exit 1; \
	fi

figures:
	$(GO) run ./cmd/sweep -figures all

campaign:
	$(GO) run ./cmd/sweep -mode campaign -app gtc -procs 32 -mtbf 0.01,0.1,1

campaign-ccr:
	$(GO) run ./cmd/sweep -spec scenarios/campaign-ccr-vs-replication.json -mode campaign

# Adaptive exploration: CI-driven trial refinement plus crossover bisection
# and optimal-tau search over the checked-in coarse grid.
explore:
	$(GO) run ./cmd/sweep -spec scenarios/explore-crossover.json -mode explore

validate-scenarios:
	@for f in scenarios/*.json; do \
		$(GO) run ./cmd/sweep -spec $$f -validate || exit 1; \
	done

check-docs:
	@missing=0; for f in $$(grep -ohE '[A-Z]+\.md' doc.go README.md | sort -u); do \
		if [ ! -f "$$f" ]; then echo "missing $$f (referenced from doc.go/README.md)"; missing=1; fi; \
	done; exit $$missing
