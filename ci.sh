#!/bin/sh
# Tier-1 gate: everything must build (including the bench executable)
# and every test suite must pass.  Run before every commit; CI runs
# exactly this.
set -eux

dune build @all
dune runtest

# --- crash + resilience gate -------------------------------------------
# Deterministic mixed fault matrix: enumerate the fault points of a
# seeded transactional workload and run >=50 plans per strategy mixing
# crashes, one-shot transient I/O errors, silent page corruption, and
# intermittent "fail k times" windows (some absorbed by retry/backoff,
# some exhausting the budget).  Every plan must recover or degrade to a
# checker-accepted state that also heals fully.  A failure prints the
# (seed, point, hit, fails) plan and the one-line command that
# reproduces it.
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8 --validation

# Same matrices with group commit and overlapping maintenance enabled:
# the WAL's seal/fsync/ack windows (torn group tail) and the scheduler's
# job start/install boundaries become enumerable crash points and every
# plan must still land checker-accepted.
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8 --group-commit 4 --maint-workers 2
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8 --group-commit 4 --maint-workers 2 \
  --validation

# Same matrices with sharded memtables: the drive phase rotates
# per-shard flushes, so every per-shard flush window (dataset pair and
# tree seal/install) is an enumerable crash point — a crash with one
# shard durable and its siblings still in memory must recover under
# both strategies.
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8 --mem-shards 4
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8 --mem-shards 4 --validation

# All three together: group commit, overlapping maintenance and sharded
# memtables — where per-(tree, shard) frontiers meet torn commit groups
# and per-shard flushes ride the scheduler's first round as jobs.
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8 --group-commit 4 --maint-workers 2 \
  --mem-shards 4
dune exec bin/lsm_repro.exe -- faultsim --seed 1 --points 60 --io 12 \
  --corrupt 12 --intermittent 8 --group-commit 4 --maint-workers 2 \
  --mem-shards 4 --validation

# --- serving-layer smoke ----------------------------------------------
# One tiny open-loop run with a fixed seed: the command must exit 0 and
# emit a schema-valid JSON document (test_cli.ml checks the schema; this
# checks the binary end to end, including the budget coordinator).
dune exec bin/lsm_repro.exe -- serve -s tiny --duration 0.2 --rate 1000 \
  --seed 7 --json /tmp/serve_smoke.json
grep -q '"schema": "lsm-repro-serve/1"' /tmp/serve_smoke.json

# The same loop with sharded memtables and overlapping maintenance: the
# budget's shard-granular eviction is the only budget path left that the
# unsharded smoke does not reach.  Two same-seed runs must agree byte
# for byte.
for run in a b; do
  dune exec bin/lsm_repro.exe -- serve -s tiny --duration 0.2 --rate 1000 \
    --seed 7 --mem-shards 2 --maint-workers 2 --json /tmp/serve_shard_$run.json
done
cmp /tmp/serve_shard_a.json /tmp/serve_shard_b.json

# --- timeline determinism ---------------------------------------------
# The same seeded run collected twice must export byte-identical timeline
# documents (JSON and CSV): the telemetry path reads the simulated clock
# and never perturbs it, so any diff here is nondeterminism leaking into
# the serving layer or its instrumentation.
dune exec bin/lsm_repro.exe -- serve -s tiny --duration 0.2 --rate 1000 \
  --seed 7 --slo 'point:p99<1500us' --timeline /tmp/serve_tl_a.json \
  --timeline-csv /tmp/serve_tl_a.csv
dune exec bin/lsm_repro.exe -- serve -s tiny --duration 0.2 --rate 1000 \
  --seed 7 --slo 'point:p99<1500us' --timeline /tmp/serve_tl_b.json \
  --timeline-csv /tmp/serve_tl_b.csv
grep -q '"schema": "lsm-repro-timeline/1"' /tmp/serve_tl_a.json
cmp /tmp/serve_tl_a.json /tmp/serve_tl_b.json
cmp /tmp/serve_tl_a.csv /tmp/serve_tl_b.csv

# --- observability determinism ----------------------------------------
# The span path (tracer ring, plan trees, span histograms, profile) reads
# the simulated clock and never perturbs it, so the same run collected
# twice must write byte-identical trace and explain files and print the
# same report (the "wrote ... to PATH" lines name different files and
# are masked).
for run in a b; do
  dune exec bin/lsm_repro.exe -- run abl-bf-repair -s tiny \
    --trace /tmp/obs_trace_$run.json --explain-json /tmp/obs_explain_$run.json \
    --metrics --profile > /tmp/obs_raw_$run.txt
  sed 's/^\(wrote .* to \).*/\1PATH/' /tmp/obs_raw_$run.txt > /tmp/obs_out_$run.txt
done
cmp /tmp/obs_trace_a.json /tmp/obs_trace_b.json
cmp /tmp/obs_explain_a.json /tmp/obs_explain_b.json
cmp /tmp/obs_out_a.txt /tmp/obs_out_b.txt

# --- chaos gate --------------------------------------------------------
# The serving layer under a deterministic partition-fault matrix (crash
# + intermittent I/O + slow disk, one partition each) must keep serving,
# pass the degraded-correctness checker (exit 0 is the checker verdict),
# and stay byte-identical across two same-seed runs — fault injection,
# breakers, hedging, and shedding all run on the simulated clock, so any
# timeline diff is nondeterminism in the chaos path.  Both WAL-backed
# strategies are exercised.
for strategy in validation bitmap; do
  dune exec bin/lsm_repro.exe -- serve -s tiny --duration 0.3 --rate 1500 \
    --seed 7 --strategy "$strategy" \
    --chaos 'crash@p1@t60ms;io@p2@t30ms+30ms!6;slow@p3@t40ms+40ms*8' \
    --deadline-us 8000 --shed-backlog 30000 \
    --timeline /tmp/chaos_tl_a.json --json /tmp/chaos_a.json
  dune exec bin/lsm_repro.exe -- serve -s tiny --duration 0.3 --rate 1500 \
    --seed 7 --strategy "$strategy" \
    --chaos 'crash@p1@t60ms;io@p2@t30ms+30ms!6;slow@p3@t40ms+40ms*8' \
    --deadline-us 8000 --shed-backlog 30000 \
    --timeline /tmp/chaos_tl_b.json --json /tmp/chaos_b.json
  grep -q '"mode": "chaos"' /tmp/chaos_a.json
  grep -q '"ok": true' /tmp/chaos_a.json
  cmp /tmp/chaos_tl_a.json /tmp/chaos_tl_b.json
  cmp /tmp/chaos_a.json /tmp/chaos_b.json
done

# --- golden outputs ----------------------------------------------------
# Every deterministic CLI output above (the faultsim matrices, the chaos
# and serve documents), plus a traced and explained figure, every
# experiment and the amplification report, digested one line each.  Any
# difference from the committed GOLDEN file is a change in simulated
# behaviour: regenerate the file on purpose (sh golden.sh > GOLDEN) and
# commit it with the change that moves it.
sh golden.sh > /tmp/golden_new.txt
diff GOLDEN /tmp/golden_new.txt

# --- bench checks ------------------------------------------------------
# One quick microbench run feeds three comparisons against the committed
# baseline:
#   1. GATE: every sim.* series is pure simulated cost (deterministic,
#      single-sample), so compare checks it exactly, whatever the
#      threshold: any move, in either direction, is an unrecorded
#      algorithmic or cost-model change and fails CI (move a baseline
#      on purpose by committing the new value), and so does a baseline
#      sim.* entry the new run no longer produces.
#   2. GATE: every footprint.* series (heap words per stored row or
#      sample) is deterministic per binary, so any growth fails CI; a
#      change that shrinks one commits the new value.
#   3. Advisory: host timings on CI machines are too noisy to gate on,
#      so regressions in the full set only print.
if [ -f BENCH_micro.json ]; then
  dune exec bench/main.exe -- micro --quota 0.05 --json /tmp/bench_new.json \
    > /dev/null 2>&1
  dune exec bench/main.exe -- compare BENCH_micro.json /tmp/bench_new.json \
    --threshold 0.10 --only sim.
  dune exec bench/main.exe -- compare BENCH_micro.json /tmp/bench_new.json \
    --threshold 0 --only footprint.
  (
    set +e
    echo "### advisory bench compare (not a gate; failures do not fail CI)"
    dune exec bench/main.exe -- compare BENCH_micro.json /tmp/bench_new.json \
      --threshold 0.5
    echo "### advisory bench compare done (ignored either way)"
  ) || true
fi
