# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test bench vet fmt cover evaluate examples clean check smoke modelcheck

all: build test

# Pre-merge gate: static checks, the race detector, and a fixed-seed
# fault-injection smoke run on every protocol (see CONTRIBUTING.md).
check: vet
	$(GO) test -race ./...
	$(GO) test -run 'TestLitmusUnderFaults|TestWorkloadsUnderFaults' ./internal/sim ./internal/harness

# Exhaustive small-state model check: enumerate every interleaving of
# the 2-SM micro machine for all four protocols (G-TSC through §V-D
# rollover), plus the mutation tests that prove the checker has teeth.
modelcheck:
	$(GO) test -v -run 'TestExhaustive|TestMutation' ./internal/model

# Kill-and-resume smoke: interrupt real binaries with real signals,
# resume from checkpoint/journal, and diff against uninterrupted runs.
# The sweep smoke does the same for the distributed sweep service:
# SIGKILL a worker and the coordinator mid-sweep, diff the recovered
# results against a serial local reference.
smoke:
	bash scripts/kill_resume_smoke.sh
	bash scripts/sweep_smoke.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One testing.B benchmark per paper table/figure (+ extensions).
bench:
	$(GO) test -bench=. -benchmem .

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

cover:
	$(GO) test -cover ./internal/...

# Regenerate the paper's full evaluation at paper scale (Table II,
# Figs 12-17, ablations, extensions) into results_paper_scale.txt.
evaluate:
	$(GO) run ./cmd/gtscbench | tee results_paper_scale.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/paperwalkthrough
	$(GO) run ./examples/irregulargraph
	$(GO) run ./examples/leasesweep
	$(GO) run ./examples/atomichistogram

clean:
	$(GO) clean ./...
