# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check bench examples clean doc

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

# Quick-scale run of every paper table/figure + ablations.
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
