#!/bin/sh
# The full pre-merge gate: build everything, vet everything, run every test
# under the race detector. The runtime is a message-passing system built on
# goroutines, so a -race pass is part of correctness, not a nicety.
#
# The global -timeout enforces the failure model's core promise at the CI
# level: no failure mode is allowed to hang — a regression that re-introduces
# a hang fails the gate instead of wedging it.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Static analysis beyond go vet: staticcheck, pinned by version so every
# machine runs the same checker. The gate must also pass on an offline
# sandbox (this repo's usual CI container has no network), so probe with
# GOPROXY=off — a PATH binary or a warm module cache runs it, anything
# else skips loudly instead of hanging on a fetch.
STATICCHECK=honnef.co/go/tools/cmd/staticcheck@2025.1
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
elif GOPROXY=off go run "$STATICCHECK" -version >/dev/null 2>&1; then
  GOPROXY=off go run "$STATICCHECK" ./...
else
  echo "check.sh: staticcheck unavailable offline; skipping (go install $STATICCHECK)" >&2
fi

# One fresh race pass over everything: -count=1 so a cached result never
# stands in for a real run of the runtime's goroutine-dense code.
go test -race -timeout 300s -count=1 ./...

# Run the failure suite (abort propagation, deadlines, fault injection, TCP
# hardening) once more under a tighter timeout: these tests exist to prove
# failures terminate promptly, so hold them to a prompter standard.
go test -race -timeout 120s -count=1 \
  -run 'TestRunRankFailure|TestRunPanic|TestAbort|TestSendAfterAbort|TestJoinTCPAbort|TestLowest|TestDeadline|TestFault|TestEmptyFaultPlan|TestHub|TestDialRetry|TestGarbage|TestRunTCP' \
  ./internal/mpi/

# The disconnect/corrupt faults run -count=3 as a small soak: the
# reconnect-vs-traffic interleaving of resilient sessions is timing-
# dependent, and a single lucky pass proves nothing about the race.
go test -race -timeout 240s -count=3 \
  -run 'TestDisconnectFault|TestCorruptFault' ./internal/mpi/

# Flake soak: tier-1 must pass on every run, not on most. Shuffled order
# and varied GOMAXPROCS expose tests that depend on one schedule.
go test -timeout 600s -count=3 -shuffle=on -cpu=1,2,4 \
  ./internal/mpi/ ./internal/exemplars/... ./internal/sched/

# The recovery machinery must be free when unused: interleaved best-of-5
# ping-pongs, plain world vs inert WithRecovery world, pinned at <= 2%.
go run ./cmd/benchlab -recoverpin

# Resilient sessions must stay close to free too: a world with sessions
# armed (HubSuspicion) vs a plain RunTCP world on a 1 MiB TCP ping-pong,
# pinned at <= 5%.
go run ./cmd/benchlab -sessionpin

# Vector/framing benchmark smoke: fewest sizes, one round, no pin
# enforcement — proves the -vecbench harness itself still runs end to end
# without paying the full sweep.
go run ./cmd/benchlab -vecbench-quick -mpibench-out /tmp/BENCH_vec_smoke.json

# Shm-transport benchmark smoke, same idea: two sizes, one round, one world
# size, pins reported but not enforced.
go run ./cmd/benchlab -shmtbench-quick -mpibench-out /tmp/BENCH_shmt_smoke.json

# Hierarchical benchmark smoke: fewest sizes, one round, no pin enforcement —
# proves the -hierbench harness (modeled 2-node Beowulf platform, flat vs
# two-level, forestfire overlap) still runs end to end.
go run ./cmd/benchlab -hierbench-quick -mpibench-out /tmp/BENCH_hier_smoke.json

# RMA benchmark smoke: one size, one round, pins reported but not enforced —
# proves the -rmabench harness (batched Put epochs vs the two-sided epoch,
# naive-loop comparisons, PageRank scaling) still runs end to end.
go run ./cmd/benchlab -rmabench-quick -mpibench-out /tmp/BENCH_rma_smoke.json

# The scheduler service: gang placement, per-tenant fairness, quotas and
# backpressure, the retry/quarantine supervisor, heartbeat-driven node death,
# elastic shrink, drain/close, and the HTTP API — fresh under the race
# detector. The suite includes the chaos load test (a node killed mid-load)
# whose acceptance invariant is every admitted job terminal and zero lost.
go test -race -timeout 180s -count=1 ./internal/sched/

# Scheduler load-test smoke: fewer jobs through the real loopback HTTP API,
# steady + chaos phases; the zero-lost-jobs pin is enforced even in quick
# mode because it is an invariant, not a performance number.
go run ./cmd/benchlab -schedbench-quick -mpibench-out /tmp/BENCH_sched_smoke.json

# Benchmark smoke pass: one iteration of every benchmark, so a refactor that
# breaks a benchmark body (the BENCH_shm.json / BENCH_mpi.json inputs) fails
# the gate instead of being discovered at regeneration time.
go test -run '^$' -bench . -benchtime 1x -timeout 300s ./internal/shm/ ./internal/exemplars/...
