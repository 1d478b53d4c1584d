#!/usr/bin/env bash
# End-to-end smoke test for the observability layer, registered with ctest
# as `obs-smoke`. Drives the depsurf CLI through gen + stats + emit + check
# with --metrics-out, validates the emitted run reports with `metrics lint`,
# and proves determinism: two identical check runs canonicalize (timings
# masked) to byte-identical JSON.
set -eu

DEPSURF=${1:?usage: obs_smoke.sh /path/to/depsurf}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "obs_smoke: FAIL: $*" >&2
  exit 1
}

# ---- gen: image generation writes a valid report.
"$DEPSURF" gen --version=5.4 --scale=0.02 --out=img54 --metrics-out=gen.json \
  || fail "gen exited $?"
"$DEPSURF" gen --version=6.2 --scale=0.02 --out=img62 \
  || fail "gen v6.2 exited $?"
"$DEPSURF" metrics lint gen.json --min-spans=1 --require=kernelgen.images_built \
  || fail "gen report invalid"

# ---- stats: full image decode, human text to stdout, JSON report on disk.
"$DEPSURF" stats img54 --metrics-out=stats.json > stats.txt \
  || fail "stats exited $?"
grep -q "surface.extract" stats.txt || fail "stats output is missing spans"
"$DEPSURF" metrics lint stats.json --min-spans=8 \
  --require=elf.symbols_parsed,btf.types_decoded,dwarf.dies_decoded,surface.functions \
  || fail "stats report invalid"

# ---- check: analysis + relocation replay; exit 2 (mismatches) is expected.
"$DEPSURF" emit biotop --out=biotop.o || fail "emit exited $?"
set +e
"$DEPSURF" check biotop.o img54 img62 --metrics-out=check1.json \
  --trace-out=trace1.json > check1.txt
code=$?
set -e
[ "$code" -eq 0 ] || [ "$code" -eq 2 ] || fail "check exited $code"
"$DEPSURF" metrics lint check1.json --min-spans=8 \
  --require=elf.symbols_parsed,btf.types_decoded,dwarf.dies_decoded,reloc.loads_simulated,deps.sets_extracted,analyze.programs_analyzed \
  || fail "check report invalid"

# ---- determinism: a second identical run must canonicalize identically.
set +e
"$DEPSURF" check biotop.o img54 img62 --metrics-out=check2.json > check2.txt
code2=$?
set -e
[ "$code2" -eq "$code" ] || fail "check exit codes differ ($code vs $code2)"
cmp -s check1.txt check2.txt || fail "check stdout differs between runs"
"$DEPSURF" metrics canon check1.json > canon1.json || fail "canon run 1"
"$DEPSURF" metrics canon check2.json > canon2.json || fail "canon run 2"
cmp -s canon1.json canon2.json \
  || fail "masked run reports differ between identical runs"

# ---- trace export: the timeline and the run report describe the same run,
# so the trace must hold exactly one "X" event per span node (lint enforces
# the cross-check), with monotonic timestamps.
"$DEPSURF" metrics lint trace1.json --kind=trace --report=check1.json \
  || fail "trace does not match its run report"
grep -q '"displayTimeUnit"' trace1.json || fail "trace missing header"

# ---- study build: a 5-image corpus with per-image reports + an aggregate.
# Two runs must produce byte-identical masked aggregates and datasets.
for run in 1 2; do
  mkdir -p "reps$run"
  "$DEPSURF" study build --scale=0.02 --out="ds$run" --report-dir="reps$run" \
    > "study$run.txt" || fail "study build run $run exited $?"
done
cmp -s ds1 ds2 || fail "datasets differ between identical study builds"
[ "$(ls reps1/report_v*.json | wc -l)" -eq 5 ] || fail "expected 5 per-image reports"
for report in reps1/report_v*.json; do
  "$DEPSURF" metrics lint "$report" --min-spans=5 --require=surface.extracted \
    || fail "$report invalid"
done
"$DEPSURF" metrics lint reps1/report_agg.json --kind=agg \
  || fail "aggregate report invalid"
"$DEPSURF" metrics canon reps1/report_agg.json > agg1.canon || fail "agg canon 1"
"$DEPSURF" metrics canon reps2/report_agg.json > agg2.canon || fail "agg canon 2"
cmp -s agg1.canon agg2.canon \
  || fail "masked aggregates differ between identical study builds"

# ---- profile: the self-profile of a study build is valid, names the
# critical path, and (masked) is deterministic across identical builds.
"$DEPSURF" profile reps1/report_agg.json > profile1.txt || fail "profile exited $?"
grep -q "critical path" profile1.txt || fail "profile text missing critical path"
grep -q "span nodes" profile1.txt || fail "profile text missing header"
for run in 1 2; do
  "$DEPSURF" profile "reps$run/report_agg.json" --out="profile$run.json" \
    || fail "profile --out run $run exited $?"
  "$DEPSURF" metrics lint "profile$run.json" --kind=profile \
    || fail "profile$run.json invalid"
  "$DEPSURF" metrics canon "profile$run.json" > "profile$run.canon" \
    || fail "profile canon $run"
done
cmp -s profile1.canon profile2.canon \
  || fail "masked profiles differ between identical study builds"

# ---- a saved profile re-renders: `profile P.json --json` reproduces the
# file byte for byte, the text form names its critical path, and a
# tampered copy is refused. The document keeps no span stacks, so
# --folded-out is an error that names the flag.
"$DEPSURF" study build --scale=0.02 --profile-out=p.json > /dev/null \
  || fail "study build --profile-out exited $?"
"$DEPSURF" profile p.json --json > p_again.json || fail "profile p.json --json exited $?"
cmp -s p.json p_again.json || fail "profile re-render is not byte-identical"
"$DEPSURF" profile p.json > p.txt || fail "profile p.json exited $?"
grep -q "^critical path" p.txt || fail "re-rendered profile missing critical path"
sed '0,/"self_ns": [0-9]*/s//"self_ns": -1/' p.json > p_bad.json
cmp -s p.json p_bad.json && fail "could not tamper with p.json"
set +e
"$DEPSURF" profile p_bad.json > p_bad.txt 2>&1
bad_code=$?
"$DEPSURF" profile p.json --folded-out=p.folded > p_folded.txt 2>&1
folded_code=$?
set -e
[ "$bad_code" -eq 1 ] || fail "tampered profile exited $bad_code, want 1"
[ "$folded_code" -eq 1 ] || fail "profile of a profile with --folded-out exited $folded_code"
grep -q -- "--folded-out" p_folded.txt || fail "--folded-out error does not name the flag"

# ---- flamegraph export: folded stacks, one "name;child;... self_ns" line
# per distinct stack — the format flamegraph.pl consumes directly.
"$DEPSURF" profile reps1/report_agg.json --folded-out=flame.folded > /dev/null \
  || fail "profile --folded-out exited $?"
[ -s flame.folded ] || fail "flame.folded is empty"
grep -q ';' flame.folded || fail "folded stacks have no nested frames"
awk 'NF < 2 || $NF !~ /^[0-9]+$/ { exit 1 }' flame.folded \
  || fail "folded stacks malformed (want: stack self_ns)"

# ---- report merge: re-merging the per-image reports from the CLI yields
# the same aggregate the study wrote (sources carry paths vs labels, so the
# comparison is over the data sections via the merged document itself).
"$DEPSURF" report merge remerge.json reps1/report_v*.json || fail "merge exited $?"
"$DEPSURF" metrics lint remerge.json --kind=agg || fail "re-merged aggregate invalid"
grep -q '"reports": 5' remerge.json || fail "re-merge lost report provenance"

# ---- dataset-as-a-service: serve the study dataset as written, answer a
# batched oneshot query stream against it, and lint the emitted serve report.
"$DEPSURF" dataset info ds1 | grep -q "format v2" \
  || fail "study dataset does not identify as v2"
cat > requests.ndjson <<'EOF'
{"id": 1, "program": "biotop", "funcs": ["vfs_read"], "tracepoints": ["block_rq_issue"], "syscalls": ["openat"]}
{"id": 2, "program": "biotop", "funcs": ["vfs_read"], "tracepoints": ["block_rq_issue"], "syscalls": ["openat"]}
{"id": 3, not json
EOF
"$DEPSURF" serve --against=ds1 --oneshot --report-out=serve_report.json \
  < requests.ndjson > responses1.ndjson || fail "serve --oneshot exited $?"
[ "$(wc -l < responses1.ndjson)" -eq 3 ] || fail "serve answered wrong line count"
grep -q '"id": 1, "cache": "miss"' responses1.ndjson || fail "first query not a miss"
grep -q '"id": 2, "cache": "hit"' responses1.ndjson \
  || fail "duplicate query did not hit the cache"
grep -q '"ok": false' responses1.ndjson || fail "malformed request not answered in place"
"$DEPSURF" metrics lint serve_report.json --kind=serve \
  || fail "serve report invalid"

# ---- serve determinism: the response stream is byte-identical whether the
# executor runs serially or with 8 workers.
"$DEPSURF" serve --against=ds1 --oneshot --jobs=8 \
  < requests.ndjson > responses8.ndjson || fail "serve --jobs=8 exited $?"
cmp -s responses1.ndjson responses8.ndjson \
  || fail "serve responses differ between --jobs=1 and --jobs=8"

# ---- analyze and fix against the study dataset write documents that lint
# as their kinds (exit 2 reports findings). With these two, tier-1 runs
# every metrics lint kind through the CLI.
set +e
"$DEPSURF" analyze biotop.o --against=ds1 --json > analysis.json
analyze_code=$?
"$DEPSURF" fix biotop.o --against=ds1 --json --out=biotop_fixed.o > remediation.json
fix_code=$?
set -e
[ "$analyze_code" -eq 0 ] || [ "$analyze_code" -eq 2 ] || fail "analyze exited $analyze_code"
[ "$fix_code" -eq 0 ] || [ "$fix_code" -eq 2 ] || fail "fix exited $fix_code"
"$DEPSURF" metrics lint analysis.json --kind=analysis || fail "analysis document invalid"
"$DEPSURF" metrics lint remediation.json --kind=remediation \
  || fail "remediation document invalid"

# ---- a dataset in the retired v1 layout is refused by name, never misread:
# every reader exits 1 with the one-line rebuild hint.
printf 'DDS1\0\0\0\0' > old.dds
for cmd in "dataset info old.dds" "check biotop.o --dataset=old.dds" \
    "analyze biotop.o --against=old.dds" "fix biotop.o --against=old.dds" \
    "serve --against=old.dds --oneshot"; do
  set +e
  # shellcheck disable=SC2086
  "$DEPSURF" $cmd < /dev/null > v1err.txt 2>&1
  v1_code=$?
  set -e
  [ "$v1_code" -eq 1 ] || fail "'depsurf $cmd' on a v1 file exited $v1_code, want 1"
  grep -q "v1 dataset (DDS1).*depsurf dataset build" v1err.txt \
    || fail "'depsurf $cmd' does not name the v1 format: $(cat v1err.txt)"
done

# ---- strict flag parsing: every malformed numeric flag must exit 1 with an
# error that names the flag, never silently parse to 0 (the atoi family) or
# to a truncated prefix (the strtoull family). Unknown flags, subcommands
# and lint kinds (including the retired perf history ones) fail the same way.
check_flag_error() {
  flag_name=$1; shift
  set +e
  "$DEPSURF" "$@" > flagerr.txt 2>&1
  flag_code=$?
  set -e
  [ "$flag_code" -eq 1 ] \
    || fail "'depsurf $*' exited $flag_code, want 1: $(cat flagerr.txt)"
  grep -q -- "$flag_name" flagerr.txt \
    || fail "error for 'depsurf $*' does not name $flag_name: $(cat flagerr.txt)"
}
check_flag_error --jobs study build --scale=0.02 --out=dsx --jobs=abc
check_flag_error --jobs serve --against=ds1 --oneshot --jobs=999
check_flag_error --min-spans metrics lint gen.json --min-spans=abc
check_flag_error --history perf compare a.json b.json --history=h.ndjson
check_flag_error --min-spnas metrics lint gen.json --min-spnas=1
check_flag_error "subcommand trend" perf trend
check_flag_error "kind=trend (valid kinds: report|" metrics lint gen.json --kind=trend
check_flag_error --scale gen --version=5.4 --out=imgx --scale=abc
check_flag_error --seed study build --scale=0.02 --out=dsx --seed=-1
check_flag_error --oneshot serve --against=ds1

# ---- a flag declared for one mode of a command is refused in another,
# where it would be ignored.
check_flag_error --max-connections serve --against=ds1 --oneshot --max-connections=2 < /dev/null
check_flag_error --min-spans metrics lint reps1/report_agg.json --kind=agg --min-spans=1
check_flag_error --require metrics lint trace1.json --kind=trace --require=surface.extracted
check_flag_error --report metrics lint check1.json --report=check1.json
for flag in --versions=5.4 --arch=x86 --flavor=generic --scale=0.02 --seed=7 --jobs=2; do
  check_flag_error "${flag%%=*}" profile reps1/report_agg.json "$flag"
done
check_flag_error --live profile reps1/report_agg.json --live

# ---- one flag table: every command rejects a flag it does not declare, a
# value on a bare flag, a valued flag without "=", and a surplus argument,
# each naming what it rejected (all of these used to run, ignoring it).
check_flag_error --arhc gen --version=5.4 --scale=0.02 --out=imgx --arhc=arm64
check_flag_error --fnc surface img54 --fnc=vfs_read
check_flag_error --jsno stats img54 --jsno
check_flag_error --swep doctor img54 --swep=4
check_flag_error --round fuzz img54 --round=1
check_flag_error --verbsoe diff img54 img62 --verbsoe
check_flag_error --jsno check biotop.o --dataset=ds1 --jsno
check_flag_error --verbose dataset build img54 --out=dsy --verbose
check_flag_error --verbose dataset info ds1 --verbose
check_flag_error --job serve --against=ds1 --oneshot --job=4 < /dev/null
check_flag_error --jsno profile reps1/report_agg.json --jsno
check_flag_error --stirct study build --versions=5.4 --scale=0.02 --out=dsx --stirct
check_flag_error --jsno progs --jsno
check_flag_error --outt emit biotop --out=x.o --outt=y.o
check_flag_error --against analyze biotop.o --against ds1
check_flag_error --json analyze biotop.o --json=1
check_flag_error extra.o analyze biotop.o extra.o
check_flag_error --poison study build --versions=5.4 --scale=0.02 --out=dsx \
  --poison=nosuchlabel

# Every table entry, given the arguments it needs, rejects the same four
# inputs: an undeclared flag, a value on a bare flag, a valued flag without
# "=", and, where its arguments are bounded, one argument too many.
while IFS='|' read -r words bounded; do
  # shellcheck disable=SC2086
  {
    check_flag_error --zzz $words --zzz
    check_flag_error --trace $words --trace=1
    check_flag_error --metrics-out $words --metrics-out m.json
    [ "$bounded" = n ] || check_flag_error extra.arg $words extra.arg
  } < /dev/null
done <<'ENTRIES'
gen|y
surface img54|y
stats img54|y
diff img54 img62|y
check biotop.o img54|n
analyze biotop.o|y
fix biotop.o|y
dataset build img54|n
dataset info ds1|y
serve --against=ds1 --oneshot|y
progs|y
emit biotop|y
doctor img54|y
fuzz img54|n
metrics lint gen.json|y
metrics canon gen.json|y
report merge m.json gen.json|n
perf compare a.json b.json|y
profile reps1/report_agg.json|y
study build|y
ENTRIES

# ---- the usage is generated from the same table: one line per command
# and subcommand, on stderr with exit 1.
set +e
"$DEPSURF" > usage.out 2> usage.txt
usage_code=$?
set -e
[ "$usage_code" -eq 1 ] || fail "depsurf with no command exited $usage_code, want 1"
[ -s usage.out ] && fail "usage went to stdout"
for entry in gen surface stats diff check analyze fix "dataset build" "dataset info" \
    serve progs emit doctor fuzz "metrics lint" "metrics canon" "report merge" \
    "perf compare" profile "study build"; do
  grep -q "^  $entry\( \|\$\)" usage.txt || fail "usage has no line for '$entry'"
done
[ "$(grep -c '^  [a-z]' usage.txt)" -eq 20 ] \
  || fail "usage has $(grep -c '^  [a-z]' usage.txt) command lines, want 20"

echo "obs_smoke: PASS"
