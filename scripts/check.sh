#!/usr/bin/env bash
# Full local gate: formatting, lints, release build, tests.
# Mirrors what CI would run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> dependency freeze (std-only workspace)"
# The workspace is std-only by design; fail if any Cargo.toml (the
# benchmark package's included) gains an external dependency.
# Intra-workspace `path` and `workspace = true` deps are the only accepted
# forms.
python3 - <<'PY'
import glob, re, sys

def dep_section(header):
    # [dependencies], [dev-dependencies], [workspace.dependencies],
    # [build-dependencies], [target.'cfg'.dependencies] — and the table
    # form [dependencies.<name>], whose body is one dependency spec.
    parts = header.split(".")
    for i, p in enumerate(parts):
        if p.endswith("dependencies"):
            return "table" if i + 1 < len(parts) else "list"
    return None

OK_SPEC = re.compile(r'\bpath\b|workspace\s*=\s*true')
violations = []
for toml in ["Cargo.toml"] + sorted(glob.glob("crates/*/Cargo.toml")) + ["cellbench/Cargo.toml"]:
    mode = None        # None | "list" | "table"
    table = None       # (location, header, body_ok) for table mode
    def flush():
        if table is not None and not table[2]:
            violations.append(f"{table[0]}: [{table[1]}] has no path/workspace source")
    for n, line in enumerate(open(toml), 1):
        stripped = line.strip()
        if stripped.startswith("["):
            flush()
            header = stripped.strip("[]")
            mode = dep_section(header)
            table = [f"{toml}:{n}", header, False] if mode == "table" else None
            continue
        if mode is None or not stripped or stripped.startswith("#"):
            continue
        if mode == "table":
            if OK_SPEC.search(stripped):
                table[2] = True
            continue
        m = re.match(r'([A-Za-z0-9_-]+)\s*=\s*(.*)', stripped)
        if m and not OK_SPEC.search(m.group(2)):
            violations.append(f"{toml}:{n}: {stripped}")
    flush()

if violations:
    print("error: external dependency introduced (workspace is std-only):", file=sys.stderr)
    for v in violations:
        print("  " + v, file=sys.stderr)
    sys.exit(1)
print("dependency freeze OK: all deps are path/workspace-internal")
PY

echo "==> no ignored tier-1 tests"
# An #[ignore] on a tier-1 test silently shrinks the gate; fail loudly instead.
if grep -rn '#\[ignore' tests/ crates/ cellbench/src --include='*.rs'; then
    echo "error: #[ignore]d tests found — tier-1 tests must all run" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (every workspace crate, debug assertions on)"
# The root manifest's default-members make a bare `cargo test` cover every
# crate, with the engine's debug_assert! cross-checks compiled in.
cargo test -q

echo "==> cargo test --workspace (release)"
# The same tests once with release codegen. The output is kept so the next
# stage can find the release oracles in it.
cargo test --workspace --release -- -q 2>&1 | tee "$smoke_dir/release_tests.log"

echo "==> release oracles ran and passed"
# The differential oracles and the allocation check, each run once by the
# stage above, must each have run there and passed at least one test — a
# renamed or dropped binary fails the gate instead of leaving it silently:
#   warm_start_equivalence  checkpointed (forked) campaigns are
#                           byte-identical to cold ones, on 1-4 workers;
#                           every mask kind forks exactly at its cycle
#   resume_equivalence      a journal cut at any crash point, torn line
#                           included, resumes to the uninterrupted log
#   trace_determinism       fault-lifecycle event streams are identical
#                           under cold, checkpointed and resumed campaigns,
#                           and tracing does not perturb the log
#   profiler_determinism    stall/occupancy counters are identical under
#                           cold, checkpointed and collapsed campaigns and
#                           tile their run's cycles (DESIGN.md §15)
#   snapshot_merge          1/2/4-worker metrics merge to identical totals;
#                           the merge is a commutative monoid
#   collapse_equivalence    collapsed campaigns classify every mask as the
#                           full campaign does, with sound provenance
#   scenario_equivalence    mixed bit-flip and attack scenarios are
#                           byte-identical across strategies (DESIGN.md §14)
#   zero_alloc              a steady-state cycle window of every bench
#                           workload performs zero heap allocations (§13)
python3 - "$smoke_dir/release_tests.log" <<'PY'
import re, sys
REQUIRED = ["warm_start_equivalence", "resume_equivalence", "trace_determinism",
           "profiler_determinism", "snapshot_merge", "collapse_equivalence",
           "scenario_equivalence", "zero_alloc"]
lines = open(sys.argv[1]).read().splitlines()
bad = []
for name in REQUIRED:
    starts = [i for i, l in enumerate(lines) if re.match(rf"\s*Running tests/{name}\.rs \(", l)]
    if len(starts) != 1:
        bad.append(f"{name} ran {len(starts)} times")
        continue
    result = next((l for l in lines[starts[0]:] if l.startswith("test result:")), "")
    m = re.match(r"test result: ok\. (\d+) passed; 0 failed", result)
    if not m or int(m.group(1)) == 0:
        bad.append(f"{name}: {result or 'no test result'}")
        continue
    print(f"  {name}: {m.group(1)} passed")
if bad:
    print("error: release checks missing or failing: " + "; ".join(bad), file=sys.stderr)
    sys.exit(1)
PY

echo "==> benchmark package (cellbench)"
# The benchmark is a Cargo workspace of its own, so the workspace-wide
# commands above never see it. Its probe-transparency test also checks that
# warm starts still reach the dispatcher's snapshot methods.
bench_manifest=cellbench/Cargo.toml
cargo fmt --manifest-path "$bench_manifest" --check
cargo clippy --manifest-path "$bench_manifest" --release --all-targets -- -D warnings
cargo test --manifest-path "$bench_manifest" -q --release

echo "==> campaign binary journal/resume smoke"
# End-to-end over the CLI: journal a tiny campaign with live progress, then
# resume the (already complete) journal and require the same classification.
run_campaign_bin() {
    cargo run --release -q -p difi-bench --bin campaign -- \
        --injector MaFIN-x86 --bench sha --structure l1d_data \
        --injections 10 --seed 2015 "$@"
}
run_campaign_bin --journal "$smoke_dir/smoke.journal" --progress \
    | tee "$smoke_dir/journaled.out" >/dev/null
run_campaign_bin --resume "$smoke_dir/smoke.journal" \
    | tee "$smoke_dir/resumed.out" >/dev/null
if ! diff <(grep -A99 '^classification' "$smoke_dir/journaled.out" | sed 's/([^)]*)//') \
          <(grep -A99 '^classification' "$smoke_dir/resumed.out" | sed 's/([^)]*)//'); then
    echo "error: resumed campaign classification differs from journaled run" >&2
    exit 1
fi
# An --out file is a finished journal: resuming it must succeed and leave
# it byte-identical.
run_campaign_bin --out "$smoke_dir/out.jsonl" >/dev/null
cp "$smoke_dir/out.jsonl" "$smoke_dir/out.orig.jsonl"
run_campaign_bin --resume "$smoke_dir/out.jsonl" >/dev/null
cmp "$smoke_dir/out.jsonl" "$smoke_dir/out.orig.jsonl" || {
    echo "error: resuming an --out file changed it" >&2
    exit 1
}
# A misspelled flag or a bad value must fail with exit status 2 and name
# what was wrong, not run a campaign or panic.
expect_usage_error() { # <needle> <command> [args…]
    local needle="$1" status=0
    shift
    "$@" >"$smoke_dir/usage.out" 2>&1 || status=$?
    if [ "$status" -ne 2 ] || ! grep -q -- "$needle" "$smoke_dir/usage.out"; then
        echo "error: '$*' exited $status without naming $needle" >&2
        exit 1
    fi
}
expect_usage_error --colapse run_campaign_bin --colapse
expect_usage_error Nope cargo run --release -q -p difi-bench --bin campaign -- --injector Nope
expect_usage_error --injections cargo run --release -q -p difi-bench --bin figures -- \
    fig2 --injections
# A journal the campaign cannot use fails the same way, with the loader's
# error, and is left as it was: another cell's journal (seed 2015 resumed
# under --seed 7) and a file that is not a journal at all, of two lines or
# of one (a newline-terminated line is never a torn tail).
cp "$smoke_dir/smoke.journal" "$smoke_dir/smoke.orig.journal"
expect_usage_error seed cargo run --release -q -p difi-bench --bin campaign -- \
    --injector MaFIN-x86 --bench sha --structure l1d_data --injections 10 --seed 7 \
    --resume "$smoke_dir/smoke.journal"
cmp "$smoke_dir/smoke.journal" "$smoke_dir/smoke.orig.journal" || {
    echo "error: resuming another cell's journal changed it" >&2
    exit 1
}
printf 'not a journal\nnor is this\n' >"$smoke_dir/garbage.journal"
expect_usage_error "line 1" run_campaign_bin --resume "$smoke_dir/garbage.journal"
printf 'not a journal\n' >"$smoke_dir/one-line.journal"
cp "$smoke_dir/one-line.journal" "$smoke_dir/one-line.orig.journal"
expect_usage_error "line 1" run_campaign_bin --resume "$smoke_dir/one-line.journal"
cmp "$smoke_dir/one-line.journal" "$smoke_dir/one-line.orig.journal" || {
    echo "error: resuming a one-line non-journal file changed it" >&2
    exit 1
}

echo "==> campaign binary collapse smoke"
# End-to-end over the CLI: a collapsed campaign on a data-plane structure
# must print the equivalence-collapse summary and classify the same number
# of runs as requested.
run_campaign_bin --collapse | tee "$smoke_dir/collapsed.out" >/dev/null
grep -q '^collapse: 10 masks -> ' "$smoke_dir/collapsed.out" || {
    echo "error: --collapse summary missing from campaign output" >&2
    exit 1
}
grep -q 'classification (10 runs' "$smoke_dir/collapsed.out" || {
    echo "error: collapsed campaign did not log all 10 masks" >&2
    exit 1
}

echo "==> campaign binary trace/metrics smoke"
# End-to-end observability: a traced campaign must emit parseable JSONL
# event streams and a metrics JSON whose counters match the run count.
run_campaign_bin --trace "$smoke_dir/traces.jsonl" \
    --metrics-out "$smoke_dir/metrics.json" >/dev/null
python3 - "$smoke_dir/traces.jsonl" "$smoke_dir/metrics.json" <<'PY'
import json, sys
traces = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert traces, "trace file is empty"
for t in traces:
    events = t["trace"]["events"]
    kinds = [e["kind"] for e in events]
    assert "injected" in kinds, f"trace {t['index']} missing injection event"
    assert "classified" in kinds, f"trace {t['index']} never classified"
metrics = json.load(open(sys.argv[2]))["metrics"]
counters = metrics["counters"]
assert counters["campaign.runs"] == 10, counters
assert counters["campaign.traces"] == len(traces), counters
assert sum(v for k, v in counters.items() if k.startswith("campaign.status.")) == 10
assert metrics["gauges"]["phase.golden_ns"] > 0
print(f"trace/metrics smoke OK: {len(traces)} traces, counters consistent")
PY

echo "==> campaign binary profile smoke"
# End-to-end profiler: a profiled campaign must print the golden-vs-faulty
# stall table and write a JSON report whose counters tile their cycles.
run_campaign_bin --profile-out "$smoke_dir/profile.json" \
    | tee "$smoke_dir/profiled.out" >/dev/null
grep -q '^Pipeline stall/occupancy profile' "$smoke_dir/profiled.out" || {
    echo "error: --profile did not print the stall breakdown" >&2
    exit 1
}
python3 - "$smoke_dir/profile.json" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
assert set(rep) == {"golden", "faulty", "faulty_runs", "occupancy"}, rep.keys()
assert rep["faulty_runs"] == 10, rep["faulty_runs"]
for name in ("golden", "faulty"):
    p = rep[name]
    assert p["committed_cycles"] + sum(p["stalls"].values()) == p["profiled_cycles"], \
        f"{name} profile does not tile its cycles"
assert set(rep["occupancy"]) == {"rob", "iq", "lsq"}
assert rep["occupancy"]["rob"]["count"] == 10
print("profile smoke OK: counters tile, occupancy histograms present")
PY

echo "==> campaign binary scenario sweep smoke"
# End-to-end attack surface (DESIGN.md §14): an exhaustive branch-inversion
# sweep over a dense caes window must run every cycle of the window and
# print the attacker-facing SDC-by-trigger-cycle report.
cargo run --release -q -p difi-bench --bin campaign -- \
    --injector MaFIN-x86 --bench caes --structure l1d_data --seed 2015 \
    --scenario branch-invert --sweep --sweep-len 24 \
    | tee "$smoke_dir/sweep.out" >/dev/null
grep -q '^sweep: window \[' "$smoke_dir/sweep.out" || {
    echo "error: --sweep did not report its cycle window" >&2
    exit 1
}
grep -q '^scenario report: branch-invert on caes' "$smoke_dir/sweep.out" || {
    echo "error: branch-inversion sweep did not print the scenario report" >&2
    exit 1
}
grep -q 'classification (24 runs' "$smoke_dir/sweep.out" || {
    echo "error: sweep did not dispatch one run per window cycle" >&2
    exit 1
}

echo "==> engine cycle identity against HEAD"
# One interleaved round of the throughput group against HEAD, built in a
# temporary worktree: ab.sh exits 1 when any workload simulates a different
# number of cycles than HEAD does. Its Mcyc/s ratios are printed, not gated.
scripts/ab.sh HEAD 1

echo "==> throughput gate (release, fail on >10% Mcyc/s regression)"
# BENCH_throughput.json at the repo root is the committed baseline. Rerun
# the throughput group (which overwrites it) and compare against the saved
# committed numbers; a workload more than 10% below baseline fails the gate.
cp BENCH_throughput.json "$smoke_dir/throughput_baseline.json"
cargo bench -p difi-bench --bench simulators -- throughput --json
python3 - "$smoke_dir/throughput_baseline.json" BENCH_throughput.json <<'PY'
import json, sys
base = {(e["sim"], e["workload"]): e["mcyc_per_s"]
        for e in json.load(open(sys.argv[1]))["entries"]}
fresh = {(e["sim"], e["workload"]): e["mcyc_per_s"]
         for e in json.load(open(sys.argv[2]))["entries"]}
missing = sorted(set(base) - set(fresh))
assert not missing, f"throughput entries disappeared: {missing}"
bad = []
for key, was in sorted(base.items()):
    now = fresh[key]
    ratio = now / was
    flag = "  REGRESSION" if ratio < 0.9 else ""
    print(f"  {key[0]}/{key[1]:<8} {was:7.3f} -> {now:7.3f} Mcyc/s ({ratio:5.2f}x){flag}")
    if ratio < 0.9:
        bad.append(key)
if bad:
    print(f"error: Mcyc/s dropped >10% below baseline for {bad}", file=sys.stderr)
    sys.exit(1)
print("throughput gate OK")
PY
# The regenerated file only reflects this machine; restore the committed
# baseline so the gate does not ratchet on every local run.
cp "$smoke_dir/throughput_baseline.json" BENCH_throughput.json

echo "All checks passed."
