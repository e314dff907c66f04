# Convenience targets; everything is plain dune underneath.
# `make help` lists them.  Files the targets write go under .ci_out/ in
# the checkout (git-ignored), so two checkouts can run them at once.

CI_OUT = .ci_out

.PHONY: all build check ci test test-props bench examples smoke gates \
  bench-check determinism parity clean help

all: build

help:
	@echo "make build        - dune build @all"
	@echo "make test         - run every alcotest suite (same-seed bundle gates included)"
	@echo "make test-props   - seeded property tests only (text forms, plans, laws)"
	@echo "make check        - build + tests + metrics smoke"
	@echo "make ci           - the full gate: check, gates, determinism, bench-check"
	@echo "make gates        - E22-E25 smokes, reconfig cmp, props x3 seed offsets"
	@echo "make bench-check  - each benchmark workload must finish correct"
	@echo "make bench        - run the full experiment suite (E1..E25, M)"
	@echo "make examples     - run the example programs"
	@echo "make smoke        - exercise the edenctl CLI end to end"
	@echo "make determinism  - experiment output must be bit-reproducible"
	@echo "make parity REF=C - simulated output must match commit C's"
	@echo "make clean        - dune clean"

build:
	dune build @all

# Includes the same-seed gates: test/test_fault.ml runs `edenctl run`'s
# bundle twice per flag set and requires byte-identical files, zero
# invariant violations and zero journal drops.
test:
	dune runtest --force

# Just the seeded property tests: round-trips for the Name / Capability
# text forms and the Fault.Plan text format, plus the delta, health
# window, top-k and directory-ring laws (100 seeds each, greedy
# shrinking).
test-props:
	dune exec test/test_props.exe

# Build, run the test suites, and smoke the metrics pipeline: a synth
# run must export a snapshot that parses and carries the core
# instruments (edenctl metrics-check exits non-zero otherwise).
check:
	dune build @all
	dune runtest --force
	mkdir -p $(CI_OUT)
	dune exec bin/edenctl.exe -- synth --nodes 3 --requests 50 \
	  --metrics-out $(CI_OUT)/metrics_smoke.json
	dune exec bin/edenctl.exe -- metrics-check $(CI_OUT)/metrics_smoke.json
	@echo "check: OK"

ci: check gates determinism bench-check
	@echo "ci: OK"

# The gates that cannot live in `dune runtest`, one command per line:
# the experiment smokes (each asserts its headline inside the
# experiment), the reconfig subcommand twice with one seed (snapshots
# must be byte-identical), and the property suites under three
# distinct seed universes (the offset shifts every property's base
# stream; see test/prop.ml).
GATES = \
  "dune exec bench/main.exe -- E22 --smoke" \
  "dune exec bench/main.exe -- E23 --smoke" \
  "dune exec bench/main.exe -- E24 --smoke" \
  "dune exec bench/main.exe -- E25 --smoke" \
  "dune exec bin/edenctl.exe -- reconfig --nodes 4 --spares 1 --seed 11 --metrics-out $(CI_OUT)/reconfig_a.json" \
  "dune exec bin/edenctl.exe -- reconfig --nodes 4 --spares 1 --seed 11 --metrics-out $(CI_OUT)/reconfig_b.json" \
  "cmp $(CI_OUT)/reconfig_a.json $(CI_OUT)/reconfig_b.json" \
  "env EDEN_PROP_SEED_OFFSET=0 dune exec test/test_props.exe" \
  "env EDEN_PROP_SEED_OFFSET=271828 dune exec test/test_props.exe" \
  "env EDEN_PROP_SEED_OFFSET=3141592 dune exec test/test_props.exe"

gates:
	@mkdir -p $(CI_OUT)
	@for g in $(GATES); do echo "+ $$g"; sh -c "$$g" || exit 1; done
	@echo "gates: OK"

# Each benchmark workload, one virtual second at seed 7 with tracing:
# the final line must report "correct":true (same-seed repetitions
# agree, Check.run finds no violation, the census is exact).
BENCH_WORKLOADS = invoke-hot locate-churn ckpt-write

bench-check:
	@for w in $(BENCH_WORKLOADS); do \
	  echo "+ bench $$w"; \
	  bash edenbench/run.sh --workload $$w --seed 7 --seconds 1 --trace 1 \
	    | tail -n 1 | grep -q '"correct":true' \
	    || { echo "bench-check: $$w is not correct"; exit 1; }; \
	done
	@echo "bench-check: OK"

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/mail_system.exe
	dune exec examples/file_server.exe
	dune exec examples/object_editor.exe
	dune exec examples/load_balancer.exe
	dune exec examples/cluster_monitor.exe

# Exercise the CLI end to end.
smoke:
	mkdir -p $(CI_OUT)
	dune exec bin/edenctl.exe -- info
	dune exec bin/edenctl.exe -- demo --nodes 4
	dune exec bin/edenctl.exe -- heartbeat --nodes 3 --kill 1
	dune exec bin/edenctl.exe -- efs --txns 6 --optimistic
	dune exec bin/edenctl.exe -- run --nodes 5 --seed 11 --out $(CI_OUT)/run
	printf 'mk doc d\nappend d hello\nshow d\nquit\n' | \
	  dune exec bin/edenctl.exe -- edit --nodes 2

# Experiment output must be bit-reproducible.  Besides invocation and
# location (E1, E9) the list covers checkpointing (E5), delta and
# async checkpoints (E19), speculation (E22), the directory (E23) and
# membership (E24); each takes well under a second.
DETERMINISM = E1 E5 E9 E19 E22 E23 E24

determinism:
	mkdir -p $(CI_OUT)
	dune exec bench/main.exe -- $(DETERMINISM) > $(CI_OUT)/bench_a.txt 2>&1
	dune exec bench/main.exe -- $(DETERMINISM) > $(CI_OUT)/bench_b.txt 2>&1
	diff $(CI_OUT)/bench_a.txt $(CI_OUT)/bench_b.txt
	@echo "deterministic: OK"

# Simulated behaviour must match another commit's, for changes meant
# to leave it alone.  `make parity REF=<commit>` exports REF with git
# archive under .ci_out/parity/ref, builds it and this tree, and in
# each runs `edenctl run --nodes 5 --seed 11` once per flag set of the
# gate table in test/test_fault.ml (commas stand for spaces below; the
# table's two fault plans live in the test) and the DETERMINISM
# experiments, which write BENCH_<id>.json.  Any difference between the
# two output trees fails the target.
PARITY = $(CI_OUT)/parity
PARITY_ROWS = base: \
  replica-cache-coalesce:--replica-cache,--coalesce \
  clone-hedge:--clone,--hedge \
  directory:--directory \
  directory-clone-hedge:--directory,--clone,--hedge \
  spares-directory:--spares,1,--directory

parity:
	@test -n "$(REF)" || { echo "usage: make parity REF=<commit>"; exit 2; }
	rm -rf $(PARITY)
	mkdir -p $(PARITY)/ref
	git archive $(REF) | tar -x -C $(PARITY)/ref
	cd $(PARITY)/ref && DUNE_CACHE=disabled dune build --root . --display quiet \
	  ./bin/edenctl.exe ./bench/main.exe
	dune build ./bin/edenctl.exe ./bench/main.exe
	@for side in ref work; do \
	  if [ $$side = ref ]; then tree=$(CURDIR)/$(PARITY)/ref; else tree=$(CURDIR); fi; \
	  out=$(CURDIR)/$(PARITY)/$$side-out; \
	  for row in $(PARITY_ROWS); do \
	    name=$${row%%:*}; flags=$$(echo "$${row#*:}" | tr , ' '); \
	    echo "+ $$side: edenctl run --nodes 5 --seed 11 $$flags"; \
	    $$tree/_build/default/bin/edenctl.exe run --nodes 5 --seed 11 $$flags \
	      --out $$out/$$name > /dev/null || exit 1; \
	  done; \
	  echo "+ $$side: bench $(DETERMINISM)"; \
	  mkdir -p $$out/bench; \
	  (cd $$out/bench && $$tree/_build/default/bench/main.exe $(DETERMINISM) \
	    > /dev/null 2>&1) || exit 1; \
	done
	diff -r $(PARITY)/ref-out $(PARITY)/work-out
	@echo "parity with $(REF): OK"

clean:
	dune clean
	rm -rf $(CI_OUT)
