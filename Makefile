.PHONY: all build test lint chaos store-chaos session-chaos serve-smoke lp-bench bench bench-json engine-bench clean

all: build

build:
	dune build @all

# Full tier-1: every test suite + the lint wall (runtest depends on @lint).
test:
	dune runtest

# Just the wall: dplint check over the tree (lint rules + the
# cross-module passes over lib/ and bin/) + the certificate self-checks.
lint:
	dune build @lint

# Fault matrix: every trigger site x action x hit discipline; the serve
# ladder must release a certified mechanism under all of them (@runtest
# depends on this too).
chaos:
	dune build @chaos

# Store sabotage matrix: fault trips, torn writes, bit flips, foreign
# files, future frames and killed writers against the persistent
# artifact store — served bytes must match a storeless run (@chaos
# depends on this too).
store-chaos:
	dune build @store-chaos

# Session sabotage matrix: tripped epoch draws, tripped checkpoint
# writes, torn checkpoint frames and exhausted budgets against the
# stateful session plane — every surviving epoch must be
# byte-identical to the undisturbed sequence (@chaos depends on this
# too).
session-chaos:
	dune build @session-chaos

# End-to-end serving smoke: dpserved on an ephemeral port + a dpopt
# client round trip, byte-identical to `dpopt engine`, then a graceful
# SIGTERM drain (@runtest depends on this too).
serve-smoke:
	dune build @serve-smoke

# LP engine gate: trimmed THM1 through one revised-simplex session,
# and the same LPs solved cold by the test-only full-tableau oracle
# (lp_oracle, test/oracle/) — certified outputs must be byte-identical
# and the revised engine must hold a hard wall-clock speedup floor
# (DESIGN.md 4k).
lp-bench:
	dune build @lp-bench --force

bench:
	dune exec bench/main.exe

# Machine-readable bench trajectory: one record per experiment (wall
# time, simplex pivots, coefficient bit sizes, full metrics). The
# number in the file name is the PR sequence number, so successive
# PRs leave comparable snapshots behind.
bench-json:
	dune exec bench/main.exe -- --bench-json BENCH_9.json

# Just the serving-engine experiment (E1): cache + compiled samplers +
# Domain pool, checking byte-identical output across worker counts.
# The >= 2x parallel-speedup criterion only binds on >= 4 cores.
engine-bench:
	dune exec bench/main.exe -- engine

clean:
	dune clean
