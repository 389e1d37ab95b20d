#!/bin/sh
# Print one digest line per deterministic output of the CLI: every
# command below runs on the simulated clock with a fixed seed, so its
# output is a pure function of the code.  ci.sh diffs this against the
# committed GOLDEN file; a change that moves a simulated number on
# purpose regenerates it in the same commit, so the move shows up as a
# reviewed diff:
#
#   sh golden.sh > GOLDEN
#
# Lines are "<sha256>  <output name>".  Needs a built
# bin/lsm_repro.exe (dune build).
set -eu

bin=${LSM_REPRO:-./_build/default/bin/lsm_repro.exe}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

digest() {
  # $1 = output name, $2 = file
  printf '%s  %s\n' "$(sha256sum < "$2" | cut -d' ' -f1)" "$1"
}

# The eight faultsim matrices ci.sh runs.
fs="--seed 1 --points 60 --io 12 --corrupt 12 --intermittent 8"
i=0
for extra in "" "--group-commit 4 --maint-workers 2" "--mem-shards 4" \
  "--group-commit 4 --maint-workers 2 --mem-shards 4"; do
  for strategy in "" "--validation"; do
    i=$((i + 1))
    # shellcheck disable=SC2086
    "$bin" faultsim $fs $extra $strategy > "$out/faultsim$i.txt"
    # shellcheck disable=SC2086
    digest "$(echo faultsim $fs $extra $strategy)" "$out/faultsim$i.txt"
  done
done

# Both chaos runs: the checker's JSON and the timeline.
for strategy in validation bitmap; do
  "$bin" serve -s tiny --duration 0.3 --rate 1500 --seed 7 \
    --strategy "$strategy" \
    --chaos 'crash@p1@t60ms;io@p2@t30ms+30ms!6;slow@p3@t40ms+40ms*8' \
    --deadline-us 8000 --shed-backlog 30000 \
    --timeline "$out/chaos_tl.json" --json "$out/chaos.json" > /dev/null
  digest "serve chaos $strategy --json" "$out/chaos.json"
  digest "serve chaos $strategy --timeline" "$out/chaos_tl.json"
done

# A longer chaos run: the short ones above carry about 450 requests,
# so most class p99s are the class maximum; this one ranks every class
# the chaos mix draws over at least 1,000 samples.
"$bin" serve -s tiny --duration 40 --rate 1500 --seed 7 \
  --strategy validation \
  --chaos 'crash@p1@t60ms;io@p2@t30ms+30ms!6;slow@p3@t40ms+40ms*8' \
  --deadline-us 8000 --shed-backlog 30000 --json "$out/chaos_long.json" \
  > /dev/null
digest "serve chaos validation --duration 40 --json" "$out/chaos_long.json"

# Clean and sharded serve runs.
"$bin" serve -s tiny --duration 0.2 --rate 1000 --seed 7 \
  --json "$out/serve.json" > /dev/null
digest "serve clean --json" "$out/serve.json"
"$bin" serve -s tiny --duration 0.2 --rate 1000 --seed 7 --mem-shards 2 \
  --maint-workers 2 --json "$out/serve_shard.json" > /dev/null
digest "serve sharded --json" "$out/serve_shard.json"

# One figure with its trace and explain plan; the "wrote ... to PATH"
# lines name temporary files and are masked.
"$bin" run fig12a -s tiny --trace "$out/trace.json" \
  --explain-json "$out/explain.json" > "$out/fig12a_raw.txt"
sed 's/^\(wrote .* to \).*/\1PATH/' "$out/fig12a_raw.txt" > "$out/fig12a.txt"
digest "run fig12a stdout" "$out/fig12a.txt"
digest "run fig12a --trace" "$out/trace.json"
digest "run fig12a --explain-json" "$out/explain.json"

# Every experiment, and the amplification report.
"$bin" all -s tiny > "$out/all.txt"
digest "all -s tiny" "$out/all.txt"
"$bin" inspect -s tiny --json "$out/inspect.json" > /dev/null
digest "inspect -s tiny --json" "$out/inspect.json"
