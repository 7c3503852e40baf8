#!/usr/bin/env bash
# `just perf-ab` — interleaved A/B pairs of perfbench: a base git revision
# against the working tree.
#
#   bash scripts/perf_ab.sh [BASE] [WORKLOAD] [METRIC]
#
#   BASE      git revision to compare against (default HEAD)
#   WORKLOAD  retry-storm | apres-mix | serve-batch (default apres-mix)
#   METRIC    an end-to-end metric of the result line (default
#             sim_cycles_per_s)
#
# Every run lasts the benchmark's `run_seconds` (BENCHMARK.json), and there
# are always 10 pairs, the fewest METHODOLOGY.md accepts for a claim.
#
# BASE is exported with `git archive` into target/perf-ab/<sha>/ (gitignored)
# and its perfbench built there; the working tree's perfbench builds in
# perfbench/target/. Pair i runs both binaries with seed i, base first in odd
# pairs and change first in even ones, so slow drift of a shared host hits
# both sides alike (METHODOLOGY.md). Each pair prints change/base for METRIC;
# the last line is the median ratio. For a lower-is-better metric a ratio
# below 1 is the gain.
#
# Exits 1 if any run fails, reports `"correct": false` or `"failed"` > 0, or
# lacks METRIC; 2 on a usage error.
set -u -o pipefail
cd "$(dirname "$0")/.."

BASE=${1:-HEAD}
WORKLOAD=${2:-apres-mix}
METRIC=${3:-sim_cycles_per_s}
PAIRS=10
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

case "$WORKLOAD" in
retry-storm | apres-mix | serve-batch) ;;
*)
    echo "perf_ab: unknown workload '$WORKLOAD'" >&2
    exit 2
    ;;
esac
if [ -z "$SECONDS_PER_RUN" ]; then
    echo "perf_ab: no run_seconds in BENCHMARK.json" >&2
    exit 2
fi
if ! rev=$(git rev-parse --verify --quiet "$BASE^{commit}"); then
    echo "perf_ab: '$BASE' is not a git revision" >&2
    exit 2
fi

base_dir="target/perf-ab/$rev"
if [ ! -f "$base_dir/perfbench/Cargo.toml" ]; then
    rm -rf "$base_dir"
    mkdir -p "$base_dir"
    git archive "$rev" | tar -x -C "$base_dir" || exit 2
fi
echo "# building perfbench at $rev and in the working tree" >&2
cargo build --release --offline -q --manifest-path "$base_dir/perfbench/Cargo.toml" || exit 2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml || exit 2
base_bin="$base_dir/perfbench/target/release/perfbench"
change_bin="perfbench/target/release/perfbench"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# Runs one side of a pair; prints METRIC's value, or fails.
run() {
    local bin=$1 seed=$2 line value
    if ! line=$("$bin" --workload "$WORKLOAD" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>"$scratch/stderr" | tail -n 1); then
        echo "perf_ab: $bin exited non-zero:" >&2
        cat "$scratch/stderr" >&2
        return 1
    fi
    if [[ "$line" != *'"correct": true'* || "$line" != *'"failed": 0,'* ]]; then
        echo "perf_ab: $bin seed $seed reported a failure: $line" >&2
        return 1
    fi
    value=$(sed -n "s/.*\"$METRIC\": {\"value\": \([^,}]*\).*/\1/p" <<<"$line")
    if [ -z "$value" ]; then
        echo "perf_ab: no metric '$METRIC' in: $line" >&2
        return 1
    fi
    echo "$value"
}

echo "pair seed base change change/base"
ratios=()
for ((i = 1; i <= PAIRS; i++)); do
    if ((i % 2)); then
        b=$(run "$base_bin" "$i") || exit 1
        c=$(run "$change_bin" "$i") || exit 1
    else
        c=$(run "$change_bin" "$i") || exit 1
        b=$(run "$base_bin" "$i") || exit 1
    fi
    r=$(awk -v b="$b" -v c="$c" 'BEGIN { printf "%.3f", c / b }')
    ratios+=("$r")
    echo "$i $i $b $c $r"
done
printf '%s\n' "${ratios[@]}" | sort -g | awk -v m="$METRIC" -v w="$WORKLOAD" '
    { r[NR] = $1 }
    END {
        med = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
        printf "median %s change/base on %s: %.3f over %d pairs\n", m, w, med, NR
    }'
