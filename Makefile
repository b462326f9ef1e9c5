# Standard entry points. `make check` is the pre-merge gate (build + vet +
# race-enabled tests); `make bench-mpi` regenerates BENCH_mpi.json, the
# tracked before/after numbers for the message-transport fast path, and
# `make bench-shm` regenerates BENCH_shm.json, the same for the shm runtime
# (pooled region dispatch, chunk handout, reductions, exemplar speedup).

.PHONY: check test bench bench-mpi bench-shm bench-recovery bench-session bench-vec bench-shmt bench-hier bench-sched bench-rma bench-diff staticcheck

check:
	./scripts/check.sh

# Static analysis beyond go vet, pinned by version so every machine runs the
# same checker. Offline-safe: uses a PATH binary or the warm module cache
# (GOPROXY=off) and skips loudly otherwise — it never fetches.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif GOPROXY=off go run $(STATICCHECK) -version >/dev/null 2>&1; then \
		GOPROXY=off go run $(STATICCHECK) ./...; \
	else \
		echo "staticcheck unavailable offline; skipping (go install $(STATICCHECK))"; \
	fi

test:
	go test ./...

bench:
	go test ./... -run '^$$' -bench . -benchtime 0.5s

bench-mpi:
	go run ./cmd/benchlab -mpibench

bench-shm:
	go run ./cmd/benchlab -shmbench

# The recovery-overhead pin on its own: inert WithRecovery ping-pong must
# stay within 2% of the plain fast path.
bench-recovery:
	go run ./cmd/benchlab -recoverpin

# The session-overhead pin on its own: a world with resilient sessions armed
# (HubSuspicion) must stay within 5% of a plain RunTCP world on a 1 MiB TCP
# ping-pong.
bench-session:
	go run ./cmd/benchlab -sessionpin

# The large-payload data plane: vector collectives and TCP typed framing,
# merged into BENCH_mpi.json with the speedup pins enforced.
bench-vec:
	go run ./cmd/benchlab -vecbench

# The shared-memory transport against TCP: ping-pong sweep, eager/rendezvous
# crossover, 1 MiB allreduce across world sizes, merged into BENCH_mpi.json
# with the 3x shm-over-TCP pins enforced.
bench-shmt:
	go run ./cmd/benchlab -shmtbench

# Topology-aware collectives on the modeled 2-node Beowulf cluster: flat vs
# two-level allreduce across payload sizes, scalar collective latency, and
# the forestfire communication/computation overlap, merged into
# BENCH_mpi.json with the 1.5x (1 MiB allreduce) and 1.2x (overlap) pins
# enforced.
bench-hier:
	go run ./cmd/benchlab -hierbench

# The one-sided layer and the irregular exchange: batched Put epochs vs the
# two-sided Send/Recv formulations, coalesced alltoallv vs the naive loops
# at skewed counts, and the PageRank exemplar's scaling curve, merged into
# BENCH_mpi.json with the 3x (Put at 64 KiB) and 2x (alltoallv at np=8)
# pins enforced.
bench-rma:
	go run ./cmd/benchlab -rmabench

# Compare a freshly regenerated BENCH_mpi.json against the committed one:
# every shared numeric field is printed with its drift, and any speedup pin
# that dropped beyond the tolerance fails the diff.
bench-diff:
	./scripts/bench_diff.sh

# The gang scheduler under load: 22 tenants hammering the HTTP API with
# thousands of short gangs (steady phase) and the same shape with a node
# killed mid-load (chaos phase), merged into BENCH_mpi.json with the
# zero-lost-jobs pin enforced.
bench-sched:
	go run ./cmd/benchlab -schedbench
