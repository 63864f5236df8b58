#!/usr/bin/env bash
# Runs the google-benchmark micro suites and merges their JSON reports into
# one BENCH_micro.json so the perf trajectory accumulates run over run.
#
# Usage: bench/run_benches.sh [BUILD_DIR] [OUTPUT_JSON]
#   BUILD_DIR    build tree containing bench/ executables (default: build)
#   OUTPUT_JSON  merged report path (default: BENCH_micro.json in the repo root)
#
# Extra google-benchmark flags can be passed via DABS_BENCH_ARGS, e.g.
#   DABS_BENCH_ARGS='--benchmark_min_time=2s' bench/run_benches.sh
#
# Flip-kernel guard: when OUTPUT_JSON already holds a prior report, the new
# BM_BulkFlipK2000 flips/s is compared against it.  A drop beyond
# DABS_BENCH_TOLERANCE (default 0.10 = 10%, generous for shared runners)
# warns; set DABS_BENCH_GATE=1 to turn the warning into a hard failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
output="${2:-${repo_root}/BENCH_micro.json}"
suites=(bench_micro_incremental bench_micro_search bench_micro_pipeline
        bench_micro_service bench_micro_problems)

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

ran=()
for suite in "${suites[@]}"; do
  exe="${build_dir}/bench/${suite}"
  if [[ ! -x "${exe}" ]]; then
    echo "skip: ${exe} not built (configure with -DDABS_BUILD_BENCH=ON" \
         "and install libbenchmark-dev)" >&2
    continue
  fi
  echo "== ${suite}" >&2
  # shellcheck disable=SC2086  # DABS_BENCH_ARGS is intentionally word-split
  "${exe}" --benchmark_out="${tmpdir}/${suite}.json" \
           --benchmark_out_format=json ${DABS_BENCH_ARGS:-} >&2
  ran+=("${suite}")
done

if [[ ${#ran[@]} -eq 0 ]]; then
  echo "error: no micro bench executable found under ${build_dir}/bench" >&2
  exit 1
fi

# Guard the flip-kernel hot path before overwriting the prior report: the
# telemetry layer must never leak into the inner loops.  Compares per-arg
# BM_BulkFlipK2000 flips/s (items_per_second) new vs old.
if [[ -f "${output}" ]] && command -v python3 >/dev/null 2>&1; then
  guard_status=0
  python3 - "${output}" "${tmpdir}/bench_micro_incremental.json" \
    "${DABS_BENCH_TOLERANCE:-0.10}" <<'PY' || guard_status=$?
import json, sys

prior_path, fresh_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])

def flips(report):
    return {b["name"]: b["items_per_second"]
            for b in report.get("benchmarks", [])
            if b["name"].startswith("BM_BulkFlipK2000") and
               "items_per_second" in b}

try:
    with open(prior_path) as f:
        prior = flips(json.load(f).get("bench_micro_incremental", {}))
    with open(fresh_path) as f:
        fresh = flips(json.load(f))
except (OSError, json.JSONDecodeError) as e:
    print(f"flip guard: skip ({e})", file=sys.stderr)
    sys.exit(0)

regressed = False
for name, before in sorted(prior.items()):
    after = fresh.get(name)
    if after is None:
        continue
    delta = (after - before) / before
    print(f"flip guard: {name} {before / 1e6:.2f} -> {after / 1e6:.2f} "
          f"Mflips/s ({delta:+.1%})", file=sys.stderr)
    if delta < -tolerance:
        regressed = True
sys.exit(2 if regressed else 0)
PY
  if [[ "${guard_status}" -ne 0 ]]; then
    echo "WARNING: BM_BulkFlipK2000 regressed beyond" \
         "${DABS_BENCH_TOLERANCE:-0.10} tolerance" >&2
    if [[ "${DABS_BENCH_GATE:-0}" = "1" ]]; then
      echo "FAIL: flip-kernel regression (DABS_BENCH_GATE=1)" >&2
      exit 1
    fi
  fi
elif [[ -f "${output}" ]]; then
  echo "flip guard: skip (python3 not found)" >&2
fi

# Merge: one object keyed by suite name, each holding the full
# google-benchmark report (context + benchmarks array).  Each context is
# stamped with provenance next to google-benchmark's host and CPU fields:
# the source revision, and the compiler, build type and flags the build
# tree baked into its generated version header.
git_rev="$(git -C "${repo_root}" describe --always --dirty 2>/dev/null || echo unknown)"
python3 - "${output}" "${tmpdir}" "${build_dir}/generated/dabs_version.hpp" \
  "${git_rev}" "${ran[@]}" <<'PY'
import json, re, sys
output, tmpdir, version_header, git_rev = sys.argv[1:5]
suites = sys.argv[5:]
provenance = {"git": git_rev}
try:
    with open(version_header) as f:
        baked = dict(re.findall(r'^#define DABS_(\w+) "(.*)"$', f.read(), re.M))
    provenance.update(compiler=baked.get("CXX_COMPILER", "unknown"),
                      build_type=baked.get("BUILD_TYPE", "unknown"),
                      cxx_flags=baked.get("CXX_FLAGS", "unknown"))
except OSError as e:
    print(f"provenance: {e}", file=sys.stderr)
merged = {}
for s in suites:
    try:
        with open(f"{tmpdir}/{s}.json") as f:
            merged[s] = json.load(f)
        merged[s].setdefault("context", {}).update(provenance)
    except (OSError, json.JSONDecodeError) as e:  # e.g. filtered-out suite
        print(f"skip {s}: {e}", file=sys.stderr)
with open(output, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
PY
echo "wrote ${output} (${#ran[@]} suites)" >&2
