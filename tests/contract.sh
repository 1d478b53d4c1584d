#!/usr/bin/env bash
# Behavioural contract check, registered with ctest as `contract`. Rebuilds
# the outputs the pipeline promises not to change and compares each one's
# SHA-256 with the committed manifest tests/golden/contract.sha256. For
# seeds 2025 and 601 at --scale=0.02 the outputs are:
#   - the stdout of the ten paper benches (bench_table{1,3,4,5,6,7,8},
#     bench_fig{4,5,6});
#   - the `study build --out` dataset at --jobs=1, which must also be
#     byte-identical to the same build at --jobs=4;
#   - the masked (`metrics canon`) per-image run reports and report_agg.json
#     of those builds' `--report-dir`, concatenated in file-name order; the
#     --jobs=4 concatenation must equal the --jobs=1 one;
#   - `dataset info` of that dataset;
#   - `serve --oneshot` responses and the `--report-out` serve_report for
#     one batch against that dataset at --jobs=1. The responses must also
#     be byte-identical at --jobs=2 (the caller and one pool thread) and
#     --jobs=4 (the reports differ in "jobs"). The batch is every program
#     `progs` lists as an object line, the same lines again (in-batch
#     hits), then tests/golden/serve_requests.ndjson,
#     hand-written lines covering every key, repeated members, escapes, id
#     kinds, expectation shapes and each error message.
#   - for each of those programs, the exit code and stdout of `check
#     --dataset`, `analyze --against --json`, `fix --against --json --out`
#     and `analyze --json` of the fixed object, one file per command, and
#     the fixed objects concatenated in `progs` order;
#   - for a `gen --version=5.4` image: `doctor --json`, a 32-mutation
#     `doctor --sweep` and a 32-round image-mode `fuzz --json` campaign;
#   - `dataset build` over image files: the five LTS images as `gen`
#     writes them, its dataset and `dataset info`, and the exit code and
#     stdout of that run and of one with a 16-byte truncated copy in the
#     middle of the list, which must leave no dataset.
#   - over those image files, the exit code and stdout of `check OBJ
#     img44 img68` for every program (the CO-RE replay against each
#     image's own BTF) and of `diff --verbose` for each consecutive LTS
#     pair, one file per command.
# `study build`'s own stdout is not hashed: it prints per-image times.
#
#   contract.sh DEPSURF BENCH_DIR [--out DIR] [--regen]
#
# DEPSURF is the depsurf CLI and BENCH_DIR the directory holding the bench
# binaries. Outputs go to a temp dir that is removed on success; on a
# mismatch the script names each differing output and keeps the dir.
# --out DIR writes (and keeps) every output under DIR, so the outputs of
# two checkouts can be compared with `diff -r`. --regen rewrites the
# manifest from this run instead of checking it; a change that needs it
# should say which lines moved and why.
set -eu

usage="usage: contract.sh DEPSURF BENCH_DIR [--out DIR] [--regen]"
[ $# -ge 2 ] || { echo "$usage" >&2; exit 1; }
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
DEPSURF=$(abspath "$1")
BENCH_DIR=$(cd "$2" && pwd)
shift 2
OUT=""
REGEN=0
while [ $# -gt 0 ]; do
  case "$1" in
    --out) OUT=${2:?$usage}; shift 2 ;;
    --out=*) OUT=${1#--out=}; shift ;;
    --regen) REGEN=1; shift ;;
    *) echo "$usage" >&2; exit 1 ;;
  esac
done
GOLDEN=$(cd "$(dirname "$0")" && pwd)/golden
MANIFEST=$GOLDEN/contract.sha256

SCALE=0.02
SEEDS="2025 601"
BENCHES="bench_table1 bench_table3 bench_table4 bench_table5 bench_table6
         bench_table7 bench_table8 bench_fig4 bench_fig5 bench_fig6"

if [ -n "$OUT" ]; then
  mkdir -p "$OUT"
  WORKDIR=$(cd "$OUT" && pwd)
  KEEP=1
else
  WORKDIR=$(mktemp -d)
  KEEP=0
fi
trap '[ "$KEEP" -eq 1 ] || rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"
export DEPSURF_BENCH_DIR="$WORKDIR"

fail() {
  KEEP=1
  echo "contract: FAIL: $*" >&2
  echo "contract: outputs kept in $WORKDIR" >&2
  exit 1
}

# record FILE ARGS...: appends a "== ARGS: exit N" line and the stdout of
# `depsurf ARGS` to FILE. The exit code is part of the answer (`check`,
# `analyze` and `fix` exit 2 on mismatches or findings), so none fails here.
record() {
  local file=$1 code=0
  shift
  "$DEPSURF" "$@" > record.out 2>> record.log || code=$?
  { echo "== $*: exit $code"; cat record.out; } >> "$file"
}

HASHED=""
for seed in $SEEDS; do
  dir=seed$seed
  mkdir -p "$dir"
  for bench in $BENCHES; do
    "$BENCH_DIR/$bench" --scale=$SCALE --seed="$seed" > "$dir/$bench.txt" \
        2> "$dir/$bench.log" || fail "$bench --seed=$seed exited $?"
    HASHED="$HASHED $dir/$bench.txt"
  done
  for jobs in 1 4; do
    mkdir -p "$dir/reports_jobs$jobs"
    "$DEPSURF" study build --scale=$SCALE --seed="$seed" --jobs=$jobs \
        --out="$dir/dataset_jobs$jobs.dds" --report-dir="$dir/reports_jobs$jobs" \
        > "$dir/study_jobs$jobs.log" 2>&1 \
      || fail "study build --seed=$seed --jobs=$jobs exited $?"
    : > "$dir/run_reports_jobs$jobs.txt"
    for report in $(ls "$dir/reports_jobs$jobs" | LC_ALL=C sort); do
      "$DEPSURF" metrics canon "$dir/reports_jobs$jobs/$report" \
          >> "$dir/run_reports_jobs$jobs.txt" || fail "metrics canon $report exited $?"
    done
  done
  cmp -s "$dir/dataset_jobs1.dds" "$dir/dataset_jobs4.dds" \
    || fail "$dir: study build --out differs between --jobs=1 and --jobs=4"
  cmp -s "$dir/run_reports_jobs1.txt" "$dir/run_reports_jobs4.txt" \
    || fail "$dir: masked run reports differ between --jobs=1 and --jobs=4"
  (cd "$dir" && "$DEPSURF" dataset info dataset_jobs1.dds) > "$dir/dataset_info.txt" \
    || fail "dataset info ($dir) exited $?"
  HASHED="$HASHED $dir/dataset_jobs1.dds $dir/run_reports_jobs1.txt $dir/dataset_info.txt"

  # Serve from inside the seed dir, so every path in a request or a
  # response is relative.
  cd "$dir"
  mkdir -p obj
  "$DEPSURF" progs > progs.txt || fail "progs exited $?"
  : > serve_objects.ndjson
  while read -r prog; do
    "$DEPSURF" emit "$prog" --out="obj/$prog.o" > /dev/null || fail "emit $prog exited $?"
    printf '{"id": "%s", "object": "obj/%s.o"}\n' "$prog" "$prog" >> serve_objects.ndjson
  done < progs.txt
  cat serve_objects.ndjson serve_objects.ndjson "$GOLDEN/serve_requests.ndjson" \
    > serve_batch.ndjson
  for jobs in 1 2 4; do
    "$DEPSURF" serve --against=dataset_jobs1.dds --oneshot --jobs=$jobs \
        --report-out="serve_report_jobs$jobs.json" < serve_batch.ndjson \
        > "serve_jobs$jobs.ndjson" 2> "serve_jobs$jobs.log" \
      || fail "serve --seed=$seed --jobs=$jobs exited $?"
  done
  for jobs in 2 4; do
    cmp -s serve_jobs1.ndjson "serve_jobs$jobs.ndjson" \
      || fail "$dir: serve responses differ between --jobs=1 and --jobs=$jobs"
  done

  mkdir -p fixed
  : > check.txt; : > analyze.txt; : > fix.txt; : > fixed_objects.bin
  while read -r prog; do
    record check.txt check "obj/$prog.o" --dataset=dataset_jobs1.dds
    record analyze.txt analyze "obj/$prog.o" --against=dataset_jobs1.dds --json
    record fix.txt fix "obj/$prog.o" --against=dataset_jobs1.dds --json \
      --out="fixed/$prog.o"
    record fix.txt analyze "fixed/$prog.o" --against=dataset_jobs1.dds --json
    cat "fixed/$prog.o" >> fixed_objects.bin
  done < progs.txt

  "$DEPSURF" gen --version=5.4 --scale=$SCALE --seed="$seed" --out=img54 > /dev/null \
    || fail "gen --seed=$seed exited $?"
  : > doctor.txt; : > fuzz.txt
  record doctor.txt doctor img54 --json
  record doctor.txt doctor img54 --sweep=32 --seed=11
  record fuzz.txt fuzz img54 --rounds=32 --seed=2025 --json

  for version in 4.4 4.15 5.15 6.8; do
    "$DEPSURF" gen --version=$version --scale=$SCALE --seed="$seed" \
        --out="img${version//./}" > /dev/null || fail "gen --version=$version exited $?"
  done
  head -c 16 img54 > img54_short
  : > dataset_build.txt
  record dataset_build.txt dataset build img44 img415 img54 img515 img68 --out=images.dds
  record dataset_build.txt dataset build img44 img415 img54_short img515 img68 \
    --out=images_short.dds
  [ ! -e images_short.dds ] || fail "$dir: dataset build over a truncated image wrote a dataset"
  "$DEPSURF" dataset info images.dds > images_info.txt || fail "dataset info ($dir) exited $?"
  : > check_images.txt; : > diff.txt
  while read -r prog; do
    record check_images.txt check "obj/$prog.o" img44 img68
  done < progs.txt
  record diff.txt diff img44 img415 --verbose
  record diff.txt diff img415 img54 --verbose
  record diff.txt diff img54 img515 --verbose
  record diff.txt diff img515 img68 --verbose
  cd "$WORKDIR"
  HASHED="$HASHED $dir/serve_jobs1.ndjson $dir/serve_report_jobs1.json"
  for out in check.txt analyze.txt fix.txt fixed_objects.bin doctor.txt fuzz.txt \
      dataset_build.txt images.dds images_info.txt check_images.txt diff.txt; do
    HASHED="$HASHED $dir/$out"
  done
done

# shellcheck disable=SC2086
if [ "$REGEN" -eq 1 ]; then
  sha256sum $HASHED > "$MANIFEST"
  echo "contract: wrote $MANIFEST ($(wc -l < "$MANIFEST") outputs)"
  exit 0
fi

[ -f "$MANIFEST" ] || fail "no manifest at $MANIFEST (create it with --regen)"
# The manifest must name exactly the outputs made above: a dropped or an
# added output is a contract change too.
# shellcheck disable=SC2086
made=$(printf '%s\n' $HASHED | sort)
listed=$(awk '{ print $2 }' "$MANIFEST" | sort)
[ "$made" = "$listed" ] \
  || fail "manifest lists other outputs than were made:
$(diff <(echo "$listed") <(echo "$made") || true)"
if ! sha256sum -c --quiet "$MANIFEST" > sha256.txt 2>&1; then
  sed -n 's/: FAILED.*$//p' sha256.txt | while read -r name; do
    echo "contract: mismatch: $name" >&2
  done
  fail "$(grep -c ': FAILED' sha256.txt) of $(wc -l < "$MANIFEST") outputs differ from $MANIFEST"
fi
echo "contract: PASS ($(wc -l < "$MANIFEST") outputs match)"
