# Offline mirror of .github/workflows/ci.yml — `make verify` runs the full
# gate locally. The workspace has no network dependencies (see vendor/).

CARGO ?= cargo

.PHONY: verify fmt clippy lint-unsafe build test doctest smoke streaming store check-specs tune-smoke obs-smoke daemon-smoke examples doc fuzz-smoke fuzz bench bench-construction bench-store bench-tuner bench-daemon bench-check perfbench-test fix

verify: fmt clippy lint-unsafe build test smoke streaming store check-specs tune-smoke obs-smoke daemon-smoke examples doc fuzz-smoke perfbench-test
	@echo "---- all checks passed ----"

fmt:
	$(CARGO) fmt --all --check

# Unsafe-audit gate: unsafe code stays confined to the store's mmap path and
# every site there carries a `// SAFETY:` comment (see scripts/lint_unsafe.sh).
lint-unsafe:
	bash scripts/lint_unsafe.sh

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test --workspace -q

doctest:
	$(CARGO) test --workspace -q --doc

# The documented entry points (examples, figure binaries, benches) must at
# least compile so README instructions cannot rot.
smoke:
	$(CARGO) build --workspace --examples --benches --bins

# The streaming-construction gate: the sink-equivalence and cross-solver
# regression suites, a smoke-build of the construction benchmark (time +
# peak transient allocation per method), and the code contract end to end
# through the release CLI on prl-4x4, which pre-pruning shrinks, and on
# dedispersion, where the optimized and chain-of-trees searches emit rows
# out of canonical order: each method's CSV export must be byte-identical
# with and without --prune, and to brute force's (one row order for every
# method), and the parallel solver's must equal the sequential one's.
streaming:
	$(CARGO) test -q --test sink_streaming --test proptest_solvers
	$(CARGO) build -p at_bench --bench construction
	rm -rf target/streaming-smoke
	mkdir -p target/streaming-smoke
	for w in prl-4x4 dedispersion; do \
	  for m in brute-force optimized parallel-optimized chain-of-trees original; do \
		$(CARGO) run --release -q -p at_cli --bin atss -- construct --workload $$w --method $$m --format csv --out target/streaming-smoke/$$w-$$m.csv && \
		$(CARGO) run --release -q -p at_cli --bin atss -- construct --workload $$w --method $$m --prune --format csv --out target/streaming-smoke/$$w-$$m-pruned.csv && \
		cmp target/streaming-smoke/$$w-$$m.csv target/streaming-smoke/$$w-$$m-pruned.csv && \
		cmp target/streaming-smoke/$$w-$$m.csv target/streaming-smoke/$$w-brute-force.csv || exit 1; \
	  done; \
	  cmp target/streaming-smoke/$$w-optimized.csv target/streaming-smoke/$$w-parallel-optimized.csv || exit 1; \
	done

# The persistence gate: the save/load round-trip + corruption proptest
# suites (including the mmap/rank-section suite), a smoke-build of the
# store bench (which includes the warm_load_mmap group), and an end-to-end
# cache round-trip through the CLI — construct twice with --cache-dir,
# assert the second run is a hit and both runs export byte-identical
# spaces, then re-run with --mmap and assert the summary reports a
# zero-copy load and the export still matches, then verify the cache
# (which checks every checksum and that the ranks strictly ascend). A gemm leg pins when the analyzer's findings print: a miss
# constructs and writes gemm's AT0006 findings to stderr, and the --mmap
# hit that follows writes nothing there.
store:
	$(CARGO) test -q --test store_roundtrip --test store_mmap
	$(CARGO) build -p at_bench --bench store
	rm -rf target/store-smoke target/store-smoke-out
	mkdir -p target/store-smoke-out
	$(CARGO) run --release -p at_cli --bin atss -- construct --workload dedispersion --cache-dir target/store-smoke --format csv --out target/store-smoke-out/cold.csv
	$(CARGO) run --release -p at_cli --bin atss -- construct --workload dedispersion --cache-dir target/store-smoke --format summary | grep -E "^cache: +hit"
	$(CARGO) run --release -p at_cli --bin atss -- construct --workload dedispersion --cache-dir target/store-smoke --format csv --out target/store-smoke-out/warm.csv
	cmp target/store-smoke-out/cold.csv target/store-smoke-out/warm.csv
	$(CARGO) run --release -p at_cli --bin atss -- construct --workload dedispersion --cache-dir target/store-smoke --mmap --format summary | grep -E "^cache load: +zero-copy \(mmap\)"
	$(CARGO) run --release -p at_cli --bin atss -- construct --workload dedispersion --cache-dir target/store-smoke --mmap --format csv --out target/store-smoke-out/mmap.csv
	cmp target/store-smoke-out/cold.csv target/store-smoke-out/mmap.csv
	$(CARGO) run --release -p at_cli --bin atss -- cache verify --cache-dir target/store-smoke
	$(CARGO) run --release -p at_cli --bin atss -- cache verify --cache-dir target/store-smoke --json | grep '"damaged":0'
	$(CARGO) run --release -q -p at_cli --bin atss -- construct --workload gemm --cache-dir target/store-smoke --format count 2> target/store-smoke-out/gemm-miss.err
	grep -F "AT0006" target/store-smoke-out/gemm-miss.err
	$(CARGO) run --release -q -p at_cli --bin atss -- construct --workload gemm --cache-dir target/store-smoke --mmap --format count 2> target/store-smoke-out/gemm-hit.err
	test ! -s target/store-smoke-out/gemm-hit.err

# The static-analysis self-check gate: run `atss check` over every built-in
# workload and the spec template. Clean specs must stay clean; the
# paper-verbatim GEMM and PRL restriction sets carry known benign findings
# (int/int true division is always Float → AT0003; tautological guards →
# AT0006; divisor values no configuration uses → prunable), asserted here as
# EXPECTED — a change in either direction fails the gate. A hostile spec
# (1 MB of `[`) must be a clean parse error (exit 1), not a stack overflow.
check-specs:
	$(CARGO) run --release -p at_cli --bin atss -- check --workload dedispersion | grep -F "0 error(s), 0 warning(s)"
	$(CARGO) run --release -p at_cli --bin atss -- check --workload expdist | grep -F "0 error(s), 0 warning(s)"
	$(CARGO) run --release -p at_cli --bin atss -- check --workload hotspot | grep -F "0 error(s), 0 warning(s)"
	$(CARGO) run --release -p at_cli --bin atss -- check --workload microhh | grep -F "0 error(s), 0 warning(s)"
	$(CARGO) run --release -p at_cli --bin atss -- check --workload gemm --json | grep -c '"code":"AT0003"' | grep -x 2
	$(CARGO) run --release -p at_cli --bin atss -- check --workload gemm --json | grep -c '"code":"AT0006"' | grep -x 2
	$(CARGO) run --release -p at_cli --bin atss -- check --workload prl-2x2 --json | grep -c '"code":"AT0006"' | grep -x 6
	$(CARGO) run --release -p at_cli --bin atss -- check --workload prl-4x4 --json | grep -F '"warnings":4'
	$(CARGO) run --release -p at_cli --bin atss -- check --workload prl-8x8 --json | grep -F '"prunable_values":8'
	$(CARGO) run --release -p at_cli --bin atss -- spec-template > target/spec-template.json
	$(CARGO) run --release -p at_cli --bin atss -- check --spec target/spec-template.json | grep -F "0 error(s), 0 warning(s)"
	head -c 1048576 /dev/zero | tr '\0' '[' > target/hostile-nested.json
	$(CARGO) run --release -p at_cli --bin atss -- check --spec target/hostile-nested.json > target/hostile-nested.out 2>&1; test $$? -eq 1
	grep -F "recursion limit exceeded" target/hostile-nested.out

# The batched-evaluation gate: `atss capabilities` must emit its schema,
# and tuning must be thread-count-deterministic end to end — tune two
# workloads with each of the four neighbor-query strategies at
# --eval-threads 1 and 4 (construction pinned to 0 ms so the virtual clock
# matches across process runs) and require the result fields (best
# runtime/config, evaluation count, virtual clock) byte-identical. A third
# leg tunes microhh from a memory-mapped cache entry (the warm path the
# tune-session benchmark runs) with the two random-neighbor strategies: each
# run must report a zero-copy hit, and its result fields must match across
# thread counts.
tune-smoke:
	$(CARGO) run --release -p at_cli --bin atss -- capabilities | grep -F '"schema":"atss.capabilities.v1"'
	rm -rf target/tune-smoke
	mkdir -p target/tune-smoke
	for w in dedispersion hotspot; do \
	  for s in genetic simulated-annealing hill-climbing iterated-local-search; do \
	    for t in 1 4; do \
	      $(CARGO) run --release -p at_cli --bin atss -- tune --workload $$w --strategy $$s --budget-ms 5000 --seed 7 --construction-ms 0 --eval-threads $$t --json \
	        | grep -oE '"(best_runtime_ms|best_config_id|evaluations|total_ms)":[^,}]*' > target/tune-smoke/$$w-$$s-$$t.txt || exit 1; \
	    done; \
	    cmp target/tune-smoke/$$w-$$s-1.txt target/tune-smoke/$$w-$$s-4.txt || exit 1; \
	  done; \
	done
	$(CARGO) run --release -p at_cli --bin atss -- construct --workload microhh --cache-dir target/tune-smoke/cache --format summary > /dev/null
	for s in genetic simulated-annealing; do \
	  for t in 1 4; do \
	    $(CARGO) run --release -p at_cli --bin atss -- tune --workload microhh --cache-dir target/tune-smoke/cache --mmap --strategy $$s --budget-ms 5000 --seed 7 --construction-ms 0 --eval-threads $$t --json > target/tune-smoke/microhh-$$s-$$t.json || exit 1; \
	    grep -F '"cache_source":"hit-zero-copy"' target/tune-smoke/microhh-$$s-$$t.json > /dev/null || exit 1; \
	    grep -oE '"(best_runtime_ms|best_config_id|evaluations|total_ms)":[^,}]*' target/tune-smoke/microhh-$$s-$$t.json > target/tune-smoke/microhh-$$s-$$t.txt || exit 1; \
	  done; \
	  cmp target/tune-smoke/microhh-$$s-1.txt target/tune-smoke/microhh-$$s-4.txt || exit 1; \
	done

# The observability gate (see README "Observability"): traced construct
# and tune runs on two workloads must produce (a) trace files that pass
# the tool's own `trace-lint` walk, (b) a one-line atss.metrics.v1
# envelope, and (c) — the zero-interference contract — exports that are
# byte-identical with and without `--trace --metrics`.
obs-smoke:
	rm -rf target/obs-smoke
	mkdir -p target/obs-smoke
	for w in dedispersion microhh; do \
	  $(CARGO) run --release -p at_cli --bin atss -- construct --workload $$w --format csv --out target/obs-smoke/$$w-plain.csv || exit 1; \
	  $(CARGO) run --release -p at_cli --bin atss -- construct --workload $$w --format csv --out target/obs-smoke/$$w-traced.csv --trace target/obs-smoke/$$w-construct.trace.json --metrics \
	    | grep -F '"schema":"atss.metrics.v1"' || exit 1; \
	  cmp target/obs-smoke/$$w-plain.csv target/obs-smoke/$$w-traced.csv || exit 1; \
	  $(CARGO) run --release -p at_cli --bin atss -- trace-lint target/obs-smoke/$$w-construct.trace.json || exit 1; \
	done
	$(CARGO) run --release -p at_cli --bin atss -- tune --workload hotspot --strategy genetic --budget-ms 3000 --seed 7 --construction-ms 0 --eval-threads 4 --json --metrics --trace target/obs-smoke/tune.trace.json \
	  | grep -F '"observability":{"schema":"atss.metrics.v1"'
	$(CARGO) run --release -p at_cli --bin atss -- trace-lint target/obs-smoke/tune.trace.json

# The space-server gate (see README "Space-server daemon"): a release
# atssd driven through its full lifecycle — cold/warm --daemon constructs,
# byte-compared exports (daemon vs. daemonless), client resolve, ping,
# the atss.daemon-status.v1 envelope, unreachable-socket fallback, and a
# SIGTERM drain that must remove socket and pidfile.
daemon-smoke:
	bash scripts/daemon_smoke.sh

# The fuzzing gate (see README "Fuzzing & corpus policy"): replay every
# checked-in regression input — the store targets' inputs must be files of
# the current ATSS format version, so none is rejected at the version
# field before it reaches the code it regresses — then a short fixed-seed
# run of all five targets so the differential oracles themselves are
# exercised on every verify. Deterministic: same seed, same inputs, every
# run.
fuzz-smoke:
	$(CARGO) test -q --test fuzz_corpus
	$(CARGO) run --release -p at_fuzz -- all --iters 20000 --seed 24301 --no-write

# The long-haul fuzzing run: minutes, not CI. New crashes are minimized and
# written into tests/fuzz_corpus/<target>/ — fix the bug and check the
# minimized input in alongside the fix.
fuzz:
	$(CARGO) run --release -p at_fuzz -- all --iters 2000000 --seed 24301

# Run the two API-tour examples end-to-end so drift between the examples and
# the `SearchSpace` API fails the gate, not just compilation.
examples:
	$(CARGO) run --release --example quickstart
	$(CARGO) run --release --example spec_files_and_export

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

bench:
	$(CARGO) bench -p at_bench

# Construction-path time + peak transient allocation across all six methods.
bench-construction:
	$(CARGO) bench -p at_bench --bench construction

# Persistence-path benchmarks: cold construction vs. warm ATSS load (the
# acceptance ratio is printed up front).
bench-store:
	$(CARGO) bench -p at_bench --bench store

# Batched-evaluation benchmarks: per-strategy eval throughput at 1 vs 4
# eval threads (the determinism check and the speedup comparison are
# printed up front), plus batch-engine microbenchmarks.
bench-tuner:
	$(CARGO) bench -p at_bench --bench tuner

# Space-server benchmarks: warm daemon resolve + mmap attach vs. local
# cold construction (the acceptance ratio is printed up front).
bench-daemon:
	$(CARGO) bench -p at_bench --bench daemon

# Static-analyzer benchmarks: `check_spec` on microhh, prl-8x8, gemm and
# hotspot (reference-interpreter calls and decided pairs printed up front).
bench-check:
	$(CARGO) bench -p at_bench --bench check

# The repository benchmark's own tests (perfbench is a workspace of its own,
# so `cargo test --workspace` never builds it): among them the stopped-daemon
# and wrong-`valid` failure checks. `--locked` fails when a crate dependency
# change would rewrite the checked-in perfbench/Cargo.lock.
perfbench-test:
	$(CARGO) test --release --offline --locked --manifest-path perfbench/Cargo.toml

# Apply rustfmt and machine-applicable clippy suggestions.
fix:
	$(CARGO) clippy --fix --allow-dirty --workspace --all-targets
	$(CARGO) fmt --all
