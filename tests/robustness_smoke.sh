#!/usr/bin/env bash
# End-to-end robustness smoke, registered with ctest as `robustness-smoke`
# (labeled `robustness`, so it also runs under DEPSURF_SANITIZE builds).
# Drives `depsurf doctor` over a clean image, a hand-poisoned one, and a
# seeded fault-injection sweep, checks that `surface --json` escapes the
# names an image gives, runs a short coverage-guided fuzz campaign
# (deterministic across reruns, lintable fuzz_campaign.v1 document), then
# walks the quarantine path of `study build` end to end: by default it must
# finish with the poisoned image quarantined and listed in the aggregate
# report; --strict must fail. Both build commands must refuse an output
# location they could not write before doing any image work. A path that
# opens but cannot be read (a directory) must be an error naming it. Last,
# a write that fails at the device (/dev/full) must fail the command.
set -eu

DEPSURF=${1:?usage: robustness_smoke.sh /path/to/depsurf}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "robustness_smoke: FAIL: $*" >&2
  exit 1
}

# ---- doctor on a clean image: exit 0, clean health, valid JSON document.
"$DEPSURF" gen --version=5.4 --scale=0.02 --out=img || fail "gen exited $?"
"$DEPSURF" doctor img > doctor.txt || fail "doctor on clean image exited $?"
grep -q "clean" doctor.txt || fail "clean image not reported clean"
"$DEPSURF" doctor img --json > doctor.json || fail "doctor --json exited $?"
"$DEPSURF" metrics lint doctor.json --kind=diag || fail "diagnostics doc invalid"

# ---- names come from the image, so a hostile image can name a function
# with a quote or a backslash: patch vfs_fsync's three name strings, then
# `surface --func=NAME --json` must print a document `metrics canon` reads
# back with the name intact.
python3 - <<'EOF'
img = open('img', 'rb').read()
assert img.count(b'vfs_fsync\0') == 3, img.count(b'vfs_fsync\0')
open('img_quote', 'wb').write(img.replace(b'vfs_fsync\0', b'vfs"fsync\0'))
open('img_backslash', 'wb').write(img.replace(b'vfs_fsync\0', b'vfs\\fsync\0'))
EOF
check_hostile_name() {
  image=$1 name=$2 want=$3
  "$DEPSURF" surface "$image" "--func=$name" --json > "$image.txt" \
    || fail "surface $image --func=$name exited $?"
  tail -n 1 "$image.txt" > "$image.json"
  "$DEPSURF" metrics canon "$image.json" > "$image.canon" \
    || fail "surface --json of $image is not JSON: $(cat "$image.json")"
  grep -qF "\"name\":$want" "$image.canon" \
    || fail "surface --json of $image does not name $want: $(cat "$image.canon")"
}
check_hostile_name img_quote 'vfs"fsync' '"vfs\"fsync"'
check_hostile_name img_backslash 'vfs\fsync' '"vfs\\fsync"'

# ---- doctor on a salvaged image: damage the image body, expect exit 2
# and ledger entries in the JSON document.
python3 - <<'EOF'
bytes = bytearray(open('img', 'rb').read())
# Clobber a window in the middle of the file: hits section bodies, not the
# ELF container, so extraction salvages instead of dying.
mid = len(bytes) // 2
bytes[mid:mid + 256] = b'\xff' * 256
open('damaged', 'wb').write(bytes)
EOF
set +e
"$DEPSURF" doctor damaged --json > damaged.json
code=$?
set -e
[ "$code" -eq 0 ] || [ "$code" -eq 2 ] || fail "doctor on damaged image exited $code"
"$DEPSURF" metrics lint damaged.json --kind=diag || fail "damaged diagnostics doc invalid"

# ---- seeded sweep: 64 mutations, no crash, deterministic across reruns.
"$DEPSURF" doctor img --sweep=64 --seed=11 > sweep1.txt || fail "sweep exited $?"
grep -q "0 crashes" sweep1.txt || fail "sweep summary missing"
"$DEPSURF" doctor img --sweep=64 --seed=11 > sweep2.txt || fail "sweep rerun exited $?"
cmp -s sweep1.txt sweep2.txt || fail "sweep is not deterministic"

# ---- malformed sweep flags must exit 1 and name the offending flag.
set +e
"$DEPSURF" doctor img --sweep=abc 2> badsweep.err
code=$?
set -e
[ "$code" -eq 1 ] || fail "doctor --sweep=abc exited $code, want 1"
grep -q -- "--sweep" badsweep.err || fail "sweep flag error does not name --sweep"
set +e
"$DEPSURF" doctor img --sweep=8 --seed=-3 2> badseed.err
code=$?
set -e
[ "$code" -eq 1 ] || fail "doctor --seed=-3 exited $code, want 1"
grep -q -- "--seed" badseed.err || fail "seed flag error does not name --seed"

# ---- short fuzz campaign: deterministic across reruns (identical JSON and
# corpus bytes), lintable document, and a minimized corpus on disk.
"$DEPSURF" fuzz img --rounds=24 --seed=7 --corpus-dir=corpus1 --json > fuzz1.json \
  || fail "fuzz campaign exited $?"
"$DEPSURF" fuzz img --rounds=24 --seed=7 --corpus-dir=corpus2 --json > fuzz2.json \
  || fail "fuzz campaign rerun exited $?"
cmp -s fuzz1.json fuzz2.json || fail "fuzz campaign is not deterministic"
for f in corpus1/*; do
  cmp -s "$f" "corpus2/$(basename "$f")" || fail "corpus file $(basename "$f") differs across reruns"
done
"$DEPSURF" metrics lint fuzz1.json --kind=fuzz || fail "fuzz campaign doc invalid"
"$DEPSURF" metrics lint corpus1/campaign.json --kind=fuzz || fail "corpus campaign.json invalid"
ls corpus1/fuzz_0000_seed.bin > /dev/null || fail "corpus is missing the seed entry"

# ---- study build with one poisoned image: by default it completes, the
# poisoned image is quarantined, and the aggregate lists its fatal entry.
mkdir -p reps
"$DEPSURF" study build --versions=5.4,5.8 --scale=0.02 \
  --poison=v5.8-x86-generic-gcc10 --report-dir=reps --out=ds > study.txt \
  || fail "keep-going study build exited $?"
grep -q "quarantined v5.8-x86-generic-gcc10" study.txt || fail "no quarantine line"
grep -q "1 images" study.txt || fail "dataset should hold only the survivor"
"$DEPSURF" metrics lint reps/report_agg.json --kind=agg || fail "aggregate invalid"
grep -q '"severity": "fatal"' reps/report_agg.json \
  || fail "aggregate is missing the quarantined image's fatal diagnostic"
grep -q '"label": "v5.8-x86-generic-gcc10"' reps/report_agg.json \
  || fail "aggregate diagnostic is not attributed to the poisoned image"

# ---- the same corpus under --strict must fail.
set +e
"$DEPSURF" study build --versions=5.4,5.8 --scale=0.02 \
  --poison=v5.8-x86-generic-gcc10 --strict > strict.txt 2> strict.err
code=$?
set -e
[ "$code" -ne 0 ] || fail "strict build succeeded over a poisoned corpus"
grep -q "v5.8-x86-generic-gcc10" strict.err || fail "strict error does not name the image"

# ---- both build commands check where they will write before any image
# work: exit 1, an error naming the flag and the path, and no progress.
check_output_error() {
  flag=$1 path=$2
  shift 2
  set +e
  "$DEPSURF" "$@" > outloc.txt 2> outloc.err
  code=$?
  set -e
  [ "$code" -eq 1 ] || fail "'depsurf $*' exited $code, want 1"
  grep -q -- "$flag=$path" outloc.err \
    || fail "error for 'depsurf $*' does not name $flag=$path: $(cat outloc.err)"
  [ ! -s outloc.txt ] || fail "'depsurf $*' printed progress: $(cat outloc.txt)"
}
"$DEPSURF" gen --version=4.4 --scale=0.02 --out=img44 || fail "gen v4.4 exited $?"
check_output_error --out nodir/x.dds dataset build img44 img --out=nodir/x.dds
check_output_error --out nodir/x.dds study build --versions=5.4,5.8 --scale=0.02 \
  --out=nodir/x.dds
check_output_error --report-dir nodir/x study build --versions=5.4,5.8 --scale=0.02 \
  --report-dir=nodir/x

# ---- a directory opens but cannot be read: every command reading it fails
# with exit 1 and an error naming it, and the build writes no dataset.
mkdir -p adir
check_unreadable() {
  set +e
  "$DEPSURF" "$@" > unreadable.txt 2> unreadable.err
  code=$?
  set -e
  [ "$code" -eq 1 ] || fail "'depsurf $*' exited $code, want 1"
  grep -q "cannot read adir" unreadable.err \
    || fail "error for 'depsurf $*' does not name adir: $(cat unreadable.err)"
  [ ! -e adir.dds ] || fail "'depsurf $*' wrote adir.dds"
}
check_unreadable metrics lint adir
check_unreadable dataset info adir
check_unreadable surface adir
check_unreadable dataset build img44 adir --out=adir.dds

# ---- a file whose bytes do not all reach the device fails the command:
# exit 1, naming the file, even when the bytes were still buffered when the
# file closed. /dev/full takes none.
check_full_write() {
  set +e
  "$DEPSURF" "$@" --out=/dev/full > full.txt 2> full.err
  code=$?
  set -e
  [ "$code" -eq 1 ] || fail "'depsurf $* --out=/dev/full' exited $code, want 1"
  grep -q "/dev/full" full.err \
    || fail "error for 'depsurf $* --out=/dev/full' does not name the file: $(cat full.err)"
}
if [ -e /dev/full ]; then
  check_full_write gen --version=5.4 --scale=0.02
  check_full_write dataset build img44 img
  check_full_write emit biotop
fi

echo "robustness_smoke: PASS"
