#!/usr/bin/env bash
# Full local gate: formatting, lints, release build, tests.
# Mirrors what CI would run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "==> cargo test"
cargo test -q

echo "==> cargo test --workspace (release)"
# Every crate's unit and doc tests, which the root-package run above skips.
# Release, because the difi-uarch pipeline suite alone runs for minutes in
# debug.
cargo test --workspace --release -q

echo "==> benchmark package (cellbench)"
# The benchmark is a Cargo workspace of its own, so the workspace-wide
# commands above never see it. Its probe-transparency test also checks that
# warm starts still reach the dispatcher's snapshot methods.
bench_manifest=cellbench/Cargo.toml
cargo fmt --manifest-path "$bench_manifest" --check
cargo clippy --manifest-path "$bench_manifest" --release --all-targets -- -D warnings
cargo test --manifest-path "$bench_manifest" -q --release

echo "==> warm-start checkpoint equivalence (release)"
# The differential oracle for the checkpointed campaign engine: run it
# explicitly (and in release — it simulates full campaigns twice).
cargo test --release -q --test warm_start_equivalence

echo "==> crash-resume equivalence (release)"
# The differential oracle for the journaled campaign engine: interrupt a
# journal at several crash points (including a torn line) and require the
# resumed log to be byte-identical to the uninterrupted one.
cargo test --release -q --test resume_equivalence

echo "==> trace determinism across strategies (release)"
# The differential oracle for the observability layer: identical masks must
# produce identical fault-lifecycle event streams under cold, checkpointed
# and crash-resumed campaigns — and tracing must not perturb the log.
cargo test --release -q --test trace_determinism

echo "==> profiler determinism across strategies (release)"
# The differential oracle for the pipeline profiler (DESIGN.md §15):
# identical masks must produce byte-identical stall/occupancy counters
# under cold, checkpointed and collapsed campaigns, profiling must not
# perturb the log, and every profile must tile its run's cycles
# (committed + Σ stalls == profiled == reported cycles).
cargo test --release -q --test profiler_determinism

echo "==> snapshot-merge split invariance (release)"
# The order-independence oracle for mergeable telemetry: 1/2/4-worker
# campaigns must merge to identical counters/histograms, and
# MetricsSnapshot::merge must be commutative and associative with the
# empty snapshot as identity on real campaign snapshots.
cargo test --release -q --test snapshot_merge

echo "==> collapse equivalence (release)"
# The differential oracle for mask-space equivalence collapsing: on two
# workloads across the paper's three setups, a collapsed campaign must
# classify every individual mask exactly as the full campaign does, save
# dispatches with sound per-class provenance, and resume from an
# interrupted collapsed journal identically.
cargo test --release -q --test collapse_equivalence

echo "==> scenario equivalence (release)"
# The differential oracle for the scenario layer (DESIGN.md §14): campaigns
# over a mixed scenario repository — bit flips, correlated bursts,
# instruction skip, opcode corruption, branch inversion — must be
# byte-identical across cold, checkpointed, and crash-resumed strategies on
# 2 workloads × 3 setups, and collapsing must stamp attack scenarios as
# singletons without changing any verdict.
cargo test --release -q --test scenario_equivalence

echo "==> campaign binary journal/resume smoke"
# End-to-end over the CLI: journal a tiny campaign with live progress, then
# resume the (already complete) journal and require the same classification.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
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

echo "==> allocation-free steady state (release)"
# DESIGN.md §13: a steady-state cycle window of every bench workload must
# perform zero heap allocations (counting-GlobalAlloc test binary).
cargo test --release -q -p difi-bench --test zero_alloc

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
