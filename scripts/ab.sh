#!/usr/bin/env bash
# Interleaved same-host A/B of engine throughput: the working tree against
# <ref>, which is built in a temporary git worktree (offline; the worktree
# is removed on exit).
#
#   scripts/ab.sh <ref> [rounds]        # default: 5 rounds
#
# Each round runs the `throughput` bench group once per side and flips
# which side goes first, so a host whose speed drifts loads both sides
# alike. Prints each workload's median Mcyc/s per side, their ratio
# (working tree / ref), and the ref's own run-to-run spread (interquartile
# range over median) to judge the ratio by. Exits 1 if a workload
# simulates a different number of cycles on the two sides. Neither side
# writes BENCH_throughput.json.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/ab.sh <ref> [rounds]" >&2
    exit 2
fi
ref="$1"
rounds="${2:-5}"
case "$rounds" in
    '' | *[!0-9]* | 0)
        echo "error: rounds must be a positive integer, got '$rounds'" >&2
        exit 2
        ;;
esac
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
    echo "error: '$ref' does not name a commit" >&2
    exit 2
}

work="$(mktemp -d)"
base="$work/ref"
cleanup() {
    git worktree remove --force "$base" 2>/dev/null || true
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$base" "$ref"

throughput() { # <dir> [cargo bench flags…]
    local dir="$1"
    shift
    (cd "$dir" && cargo bench --quiet --offline -p difi-bench --bench simulators "$@")
}

echo "==> building $ref and the working tree"
throughput "$base" --no-run
throughput . --no-run

# One line per sample: side, workload, simulated cycles, Mcyc/s.
samples="$work/samples"
for round in $(seq 1 "$rounds"); do
    if [ $((round % 2)) -eq 1 ]; then order="ref tree"; else order="tree ref"; fi
    for side in $order; do
        if [ "$side" = ref ]; then dir="$base"; else dir=.; fi
        echo "==> round $round/$rounds: $side"
        throughput "$dir" -- throughput | awk -v side="$side" '
            $1 ~ /^throughput\// { sub(/^throughput\//, "", $1); print side, $1, $4, $6 }' \
            >>"$samples"
    done
done

python3 - "$samples" "$ref" <<'PY'
import statistics, sys

samples, ref = sys.argv[1], sys.argv[2]
rates, cycles = {}, {}
for line in open(samples):
    side, workload, cyc, rate = line.split()
    rates.setdefault(workload, {}).setdefault(side, []).append(float(rate))
    cycles.setdefault(workload, {}).setdefault(side, set()).add(int(cyc))

def spread(v):
    if len(v) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(v)

print(f"{'workload':<20} {'ref Mcyc/s':>11} {'tree Mcyc/s':>12} {'ratio':>6} {'ref IQR':>8}  cycles")
differ = []
for workload, by_side in rates.items():
    cyc = cycles[workload]
    if set(by_side) != {"ref", "tree"}:
        differ.append(workload)
        print(f"{workload:<20} measured on one side only")
        continue
    r, t = statistics.median(by_side["ref"]), statistics.median(by_side["tree"])
    same = len(cyc["ref"] | cyc["tree"]) == 1
    if not same:
        differ.append(workload)
    shown = min(cyc["tree"]) if same else f"DIFFER ref {sorted(cyc['ref'])} tree {sorted(cyc['tree'])}"
    iqr = spread(by_side["ref"])
    print(f"{workload:<20} {r:>11.3f} {t:>12.3f} {t / r:>6.2f} {iqr:>8.0%}  {shown}")
if differ:
    print(f"error: simulated cycles differ from {ref} on {differ}", file=sys.stderr)
    sys.exit(1)
PY
