#!/usr/bin/env bash
# Check the benchmark itself: the definition file, the crate's unit tests,
# and that two sets of runs of the same code agree.
#
#   benchmark/check.sh
#
# 1. BENCHMARK.json obeys the contract's limits and is exactly what the
#    binary's --describe prints (the Rust tables are the source of truth;
#    the crate's unit tests check that every per-layer metric names the
#    end-to-end metric and the workloads it should move).
# 2. Every workload runs untraced and traced, twice at seed 1 and once at
#    seed 2. Every run is correct with 0 failed operations. Host-timed
#    metrics agree within their bounds in two of the three runs, and at
#    equal seed every simulated value is bit-identical. Runs stay inside the
#    wall-time budget.
#
# Takes about nine minutes on two cores.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target/benchmark}"
mkdir -p "$here/out"
work="$(mktemp -d "$here/out/check.XXXXXX")"
trap 'rm -rf "$work"' EXIT
cd "$repo"

cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
bash "$here/run.sh" --describe >"$work/describe.json"

for set in seed1a:1 seed1b:1 seed2:2; do
    for trace in 0 1; do
        for workload in $(jq -r '.workloads[].name' "$repo/BENCHMARK.json"); do
            started=$(date +%s%N)
            bash "$here/run.sh" --workload "$workload" --seed "${set#*:}" --trace "$trace" \
                --out "$work/${set%:*}" | tail -n 1 >"$work/result.json"
            printf '{"set": "%s", "workload": "%s", "trace": %s, "elapsed": %s, "result": %s}\n' \
                "${set%:*}" "$workload" "$trace" \
                "$((($(date +%s%N) - started) / 1000000))e-3" "$(cat "$work/result.json")" >>"$work/runs.jsonl"
            echo "ran $workload ${set%:*} trace $trace" >&2
        done
    done
done

python3 - "$repo/BENCHMARK.json" "$work/describe.json" "$work/runs.jsonl" "$work" <<'EOF'
import json, os, re, sys

definition_path, describe_path, runs_path, work = sys.argv[1:]
errors = []
def check(cond, msg):
    if not cond:
        errors.append(msg)

# --- the definition file -------------------------------------------------
text = open(definition_path).read()
definition = json.loads(text)
check(text == open(describe_path).read(), "BENCHMARK.json differs from `run.sh --describe`")
check(len(text.encode()) <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
check(sorted(definition) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
      "BENCHMARK.json has other keys than the contract's")
name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
workloads, end_to_end, per_layer = definition["workloads"], definition["end_to_end"], definition["per_layer"]
check(2 <= len(workloads) <= 8, "2 to 8 workloads")
check(1 <= len(end_to_end) <= 16, "1 to 16 end-to-end metrics")
check(1 <= len(per_layer) <= 128, "1 to 128 per-layer metrics")
names = [x["name"] for x in workloads + end_to_end + per_layer]
check(len(set(names)) == len(names), "a name is used twice")
for name in names:
    check(name_re.match(name), f"bad name {name!r}")
for w in workloads:
    check(sorted(w) == ["name", "why"] and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w['name']}")
for m in end_to_end:
    check(sorted(m) == ["better", "bound", "name", "unit"], f"keys of {m['name']}")
    check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
for m in per_layer:
    check(sorted(m) == ["better", "name", "unit"], f"keys of {m['name']}")
for m in end_to_end + per_layer:
    check(unit_re.match(m["unit"]) and m["better"] in ("lower", "higher"), f"unit or direction of {m['name']}")
setup = [m for m in end_to_end if m["name"] == "setup_s"]
check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s in s, lower is better")
check(isinstance(definition["run_seconds"], int) and 1 <= definition["run_seconds"] <= 60, "run_seconds")
bounds = {m["name"]: m["bound"] for m in end_to_end}

# --- the runs --------------------------------------------------------------
runs = [json.loads(line) for line in open(runs_path)]
by_key = {(r["set"], r["workload"], r["trace"]): r for r in runs}
# Host-timed values vary from run to run; everything else is simulated and
# must repeat exactly at equal seed.
HOST_END_TO_END = ("wall_s", "host_us_per_op", "setup_s", "peak_rss_mib")
host_layer = re.compile(r"host_|\.probe\.|^data\.|^engine\.kernel\.|^trace\.")
for r in runs:
    tag = f"{r['workload']} {r['set']} trace {r['trace']}"
    res = r["result"]
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, f"{tag}: {res['failed']} failed operations")
    expected = end_to_end if r["trace"] == 0 else per_layer
    check(list(res["metrics"]) == [m["name"] for m in expected], f"{tag}: reports other metrics than declared")
    for m in expected:
        got = res["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"], f"{tag}: unit of {m['name']}")
        if r["trace"] == 0:
            check(got.get("value", 0) > 0, f"{tag}: {m['name']} is not positive")
    check(r["elapsed"] <= 40, f"{tag}: took {r['elapsed']:.1f} s, over the 40 s a run may take")
    if r["trace"] == 1:
        check(os.path.getsize(os.path.join(work, r["set"], f"trace-{r['workload']}.json")) > 0, f"{tag}: no span file")
for s in ("seed1a", "seed1b", "seed2"):
    for trace in (0, 1):
        total = sum(r["elapsed"] for r in runs if r["set"] == s and r["trace"] == trace)
        check(total <= 110, f"{s} trace {trace}: the pass took {total:.1f} s, over 110 s")
for w in [w["name"] for w in workloads]:
    a, b = by_key[("seed1a", w, 0)]["result"]["metrics"], by_key[("seed1b", w, 0)]["result"]["metrics"]
    c = by_key[("seed2", w, 0)]["result"]["metrics"]
    for name in a:
        if name in HOST_END_TO_END:
            # A slow spell of the machine can spoil any one run, so two of the
            # three must agree (host time hardly depends on the seed).
            lo, mid, _ = sorted(m[name]["value"] for m in (a, b, c))
            check((mid - lo) / lo <= bounds[name], f"{w}: {name} {lo} against {mid} in the closest two of three runs, bound {bounds[name]}")
        else:
            x, y = a[name]["value"], b[name]["value"]
            check(x == y, f"{w}: {name} {x} against {y} at equal seed, must be identical")
    a, b = by_key[("seed1a", w, 1)]["result"]["metrics"], by_key[("seed1b", w, 1)]["result"]["metrics"]
    for name in a:
        if not host_layer.search(name):
            check(a[name]["value"] == b[name]["value"],
                  f"{w}: {name} {a[name]['value']} against {b[name]['value']} at equal seed, must be identical")
# Each run estimates the overhead from two or three pairs of repetitions, so
# one estimate is noisy; the middle one of the three runs is judged.
overhead = sorted(by_key[(s, "query_suite", 1)]["result"]["metrics"]["trace.overhead_pct"]["value"]
                  for s in ("seed1a", "seed1b", "seed2"))[1]
check(overhead <= 15, f"query_suite: tracing overhead {overhead:.1f} %, over 15 %")

for e in errors:
    print("FAILED", e)
print(f"{len(runs)} runs, {len(errors)} failed checks")
sys.exit(1 if errors else 0)
EOF
