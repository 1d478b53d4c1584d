#!/usr/bin/env bash
# Perf regression gate driver, registered with ctest as `perf-gate`. Runs
# the bench_perf suite twice at a small scale (base, then head), lints every
# BENCH_*.json it emits, and smoke-tests `depsurf perf compare`: identical
# inputs must pass, back-to-back runs must pass under a generous threshold
# (machine noise is not a regression), and a deliberately inflated stage
# must trip the gate with exit code 3. The --json output must round-trip
# through `metrics lint --kind=perf`, and malformed threshold flags must
# fail loudly instead of parsing to 0.
set -eu

DEPSURF=${1:?usage: perf_gate.sh /path/to/depsurf /path/to/bench_perf}
BENCH=${2:?usage: perf_gate.sh /path/to/depsurf /path/to/bench_perf}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "perf_gate: FAIL: $*" >&2
  exit 1
}

# ---- run the suite twice: a base and a head measurement of the same code.
for side in base head; do
  mkdir -p "$side"
  DEPSURF_BENCH_DIR="$WORKDIR/$side" \
    "$BENCH" --scale=0.02 --benchmark_min_time=0.05s > "$side.log" 2>&1 \
    || fail "bench_perf ($side) exited $?"
done

# ---- every emitted trajectory file must lint as a bench report.
for report in base/BENCH_*.json head/BENCH_*.json; do
  [ -f "$report" ] || fail "bench_perf wrote no BENCH_*.json"
  "$DEPSURF" metrics lint "$report" --kind=bench || fail "$report invalid"
done

# ---- the report-mode build benchmark emits a self-profile next to the
# trajectories; it must lint as depsurf.profile.v1 and carry the
# critical-path section the profile analysis is for.
for profile in base/PROFILE_*.json head/PROFILE_*.json; do
  [ -f "$profile" ] || fail "bench_perf wrote no PROFILE_*.json"
  "$DEPSURF" metrics lint "$profile" --kind=profile || fail "$profile invalid"
  grep -q '"critical_path"' "$profile" || fail "$profile missing critical_path"
done

# ---- the analyzer bench is part of the gated suite: a static-analysis
# slowdown must trip `perf compare` like any extraction stage.
grep -q 'BM_AnalyzeCorpus' base/BENCH_perf.json \
  || fail "BENCH_perf.json is missing the BM_AnalyzeCorpus stage"

# ---- the whole `depsurf fix` path (plan, rewrite, re-encode, re-parse,
# re-analyze, verify) is gated the same way, and both analyzer stages are
# mirrored into BENCH_analyzer.json.
grep -q 'BM_FixCorpus' base/BENCH_perf.json \
  || fail "BENCH_perf.json is missing the BM_FixCorpus stage"
[ -f base/BENCH_analyzer.json ] || fail "bench_perf wrote no BENCH_analyzer.json"
grep -q 'BM_AnalyzeCorpus' base/BENCH_analyzer.json \
  || fail "BENCH_analyzer.json is missing the BM_AnalyzeCorpus stage"
grep -q 'BM_FixCorpus' base/BENCH_analyzer.json \
  || fail "BENCH_analyzer.json is missing the BM_FixCorpus stage"

# ---- the CO-RE relocation replay of `check OBJ IMG` (the 53-program
# corpus against the v5.4 image) is gated as well.
grep -q 'BM_CoreRelocReplay' base/BENCH_perf.json \
  || fail "BENCH_perf.json is missing the BM_CoreRelocReplay stage"

# ---- the serve benchmarks are part of the gated suite too, and are
# mirrored into BENCH_serve.json for the ratio check below.
grep -q 'BM_ServeQueries' base/BENCH_perf.json \
  || fail "BENCH_perf.json is missing the BM_ServeQueries stages"
[ -f base/BENCH_serve.json ] || fail "bench_perf wrote no BENCH_serve.json"

# ---- dataset-as-a-service contract: answering a cached query must be at
# least 10x faster than loading the whole dataset for every query.
awk '
  /"name": "BM_ServeQueriesCached"/   { cached = $0 }
  /"name": "BM_CheckReparsePerQuery"/ { reparse = $0 }
  function per_item(line,   s, n) {
    match(line, /"seconds": [0-9.]+/); s = substr(line, RSTART + 11, RLENGTH - 11)
    match(line, /"items": [0-9]+/);    n = substr(line, RSTART + 9, RLENGTH - 9)
    return n > 0 ? s / n : -1
  }
  END {
    if (cached == "" || reparse == "") { print "missing serve stages"; exit 1 }
    c = per_item(cached); r = per_item(reparse)
    if (c <= 0 || r <= 0) { print "bad serve stage timings"; exit 1 }
    ratio = r / c
    printf "serve cached-hit speedup over full reparse: %.1fx\n", ratio
    if (ratio < 10) { print "cached serve is not 10x faster than a full reparse"; exit 1 }
  }
' base/BENCH_serve.json || fail "serve cached-vs-reparse ratio check failed"

# ---- identical inputs never trip the gate.
"$DEPSURF" perf compare base/BENCH_perf.json base/BENCH_perf.json \
  || fail "identical inputs tripped the gate ($?)"

# ---- back-to-back runs of the same build pass under a generous threshold.
"$DEPSURF" perf compare base/BENCH_perf.json head/BENCH_perf.json \
  --max-regress=400% --noise-floor=0.010 > compare.txt \
  || fail "back-to-back runs tripped the 400% gate: $(cat compare.txt)"

# ---- the JSON form lints as a perf comparison.
"$DEPSURF" perf compare base/BENCH_perf.json head/BENCH_perf.json \
  --max-regress=400% --noise-floor=0.010 --json > compare.json \
  || fail "json compare exited $?"
"$DEPSURF" metrics lint compare.json --kind=perf || fail "compare.json invalid"

# ---- a 3x slowdown of a real stage must exit 3 (not a generic error).
cat > slow_base.json <<'EOF'
{"schema": "depsurf.bench_report.v1", "bench": "gate", "notes": {}, "stages": [
 {"name": "extract", "seconds": 1.0, "items": 5, "items_per_sec": 5.0,
  "bytes": 0, "bytes_per_sec": 0.0}]}
EOF
sed 's/"seconds": 1.0/"seconds": 3.0/' slow_base.json > slow_head.json
set +e
"$DEPSURF" perf compare slow_base.json slow_head.json > gate.txt
code=$?
set -e
[ "$code" -eq 3 ] || fail "inflated stage exited $code, want 3: $(cat gate.txt)"
grep -q "regressed" gate.txt || fail "gate output does not name the regression"

# ---- malformed thresholds must exit 1 naming the flag, never silently
# parse to 0 and gate on pure noise.
for flag in --noise-floor=abc --max-regress=12%%; do
  set +e
  "$DEPSURF" perf compare base/BENCH_perf.json head/BENCH_perf.json \
    "$flag" > flag.txt 2>&1
  code=$?
  set -e
  [ "$code" -eq 1 ] || fail "$flag exited $code, want 1: $(cat flag.txt)"
  name=${flag#--}; name=${name%%=*}
  grep -q -- "$name" flag.txt || fail "error for $flag does not name the flag"
done

echo "perf_gate: PASS"
