# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check golden bench examples clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Everything CI runs: build, the full test suite, and a 200-scenario swarm
# sweep (the full invariant battery, formulation equivalence included, on
# every scenario). The summary goes to stderr; the JSON report is dropped.
check:
	dune build @all
	dune runtest
	dune exec bin/dsched.exe -- swarm -n 200 --seed 1 --out /dev/null

# Regenerate the golden files that `dune runtest` compares against: the
# swarm report (test/data/golden_swarm_n30_seed8.json; CI diffs it too) and
# the deterministic paper reproductions (test/data/golden_bench_*.txt). The
# swarm stamp names the commit, so it is pinned and then removed. Run it
# only when a change is meant to alter what the middleware decides or what
# a reproduction prints, and commit the diff with it.
golden:
	dune build bin/dsched.exe bench/main.exe
	DS_GIT_COMMIT=golden dune exec bin/dsched.exe -- swarm -n 30 --seed 8 \
	  --out _build/golden_swarm.json
	jq 'del(.stamp)' _build/golden_swarm.json > test/data/golden_swarm_n30_seed8.json
	dune exec bench/main.exe -- table1 > test/data/golden_bench_table1.txt
	dune exec bench/main.exe -- table2 > test/data/golden_bench_table2.txt
	dune exec bench/main.exe -- succinctness > test/data/golden_bench_succinctness.txt
	dune exec bench/main.exe -- figure2 --window 4 --runs 1 \
	  > test/data/golden_bench_figure2.txt
	dune exec bench/main.exe -- native-overhead --window 8 --runs 1 \
	  > test/data/golden_bench_native_overhead.txt

# Quick-scale run of every paper table and figure.
bench:
	dune exec bench/main.exe

# Paper-scale Figure 2 (240 s windows, 3 runs per point).
bench-paper:
	dune exec bench/main.exe -- figure2 --window 240 --runs 3

examples:
	dune exec examples/quickstart.exe
	dune exec examples/webshop.exe
	dune exec examples/sla_tiers.exe
	dune exec examples/relaxed_consistency.exe
	dune exec examples/recovery.exe

clean:
	dune clean
