#!/usr/bin/env bash
# Process-level checks of the `ubcode` command: output bytes and exit codes.
#
# Run from anywhere with
#     bash -e -o pipefail tests/process_checks.sh
# It exits non-zero at the first failed command, diff or exit-code assertion.
#
# 1. A three-round GF(25) transformed spec: verify --json reports every check
#    ok, a 2-node erasure decodes byte for byte, and every node repairs byte
#    for byte at the cut-set figure.
# 2. The demos and two bounds reports match the golden files.  A two-round
#    transformed spec constructs byte for byte as its golden file over the
#    default systematic assemblies and verifies with exit 0; its verify --json
#    reports every check ok and an update complexity no lower than the paper's
#    bound; its codeword decodes byte for byte under every 1- and 2-node
#    erasure, a copy with one survivor symbol flipped fails to decode with
#    exit 1 and one stderr line, and the codeword repairs every node byte for
#    byte at the cut-set figure.  The three seeded codewords of
#    tests/test_cli.py's CODEWORD_CASES match their default-build golden files
#    and decode byte for byte with their last n-k nodes erased.  A bad
#    construct, a malformed UBCODE_SEED, a spec nested 200,000 deep and a
#    (4, 2) spec with three pairing rounds each exit 2 with one stderr line and
#    no traceback.
set -e -o pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
tmp=$(mktemp -d "${RUNNER_TEMP:-/tmp}/process_checks.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# -- 1. a three-round GF(25) transformed spec ------------------------------------

spec="$tmp/spec_b.json"
cw="$tmp/spec_b.cw"
out="$tmp/spec_b.out"
python -m ubcode.cli construct --kind mrmub --n 6 --k 4 --m 4,4,4,4,4,4 --q 25 \
  --transform-rounds 3 --out "$spec"
python -m ubcode.cli verify "$spec" --json | python -c \
  'import json, sys; checks = json.load(sys.stdin)["checks"]; sys.exit(not all(c["ok"] for c in checks))'
python -m ubcode.cli encode --spec "$spec" --seed 7 --out "$cw"
python -m ubcode.cli decode --spec "$spec" --in "$cw" --erased 1,4 --out "$out"
diff "$out" "$cw"
for j in 0 1 2 3 4 5; do
  # (n - 1) * alpha' / 2 = 5 * 48 / 2 symbols per repair
  python -m ubcode.cli repair --spec "$spec" --in "$cw" --node "$j" --out "$out" \
    | grep -qx total,120
  diff "$out" "$cw"
done

# -- 2. goldens, a two-round GF(8) transformed spec, codewords, exit codes --------

python -m ubcode.cli demo fig1b | diff - tests/golden/demo_fig1b.txt
python -m ubcode.cli demo fig3 | diff - tests/golden/demo_fig3.txt
python -m ubcode.cli bounds --n 4 --k 2 --m 3,2,2,0 --json | diff - tests/golden/bounds_4_2_3220.json
python -m ubcode.cli bounds --n 4 --k 2 --m 4,2,2,0 --json | diff - tests/golden/bounds_4_2_4220.json
transformed="$tmp/transformed.json"
python -m ubcode.cli construct --kind mrmub --n 4 --k 2 --m 2,2,2,2 --q 8 \
  --transform-rounds 2 --out "$transformed"
diff "$transformed" tests/golden/spec_4_2_q8_r2_systematic.json
python -m ubcode.cli verify "$transformed"
python -m ubcode.cli verify "$transformed" --json | python -c \
  'import json, sys; checks = json.load(sys.stdin)["checks"]; sys.exit(not all(c["ok"] for c in checks))'
python -m ubcode.cli verify "$transformed" --json | python -c \
  'import json, sys; from fractions import Fraction as F; d = json.load(sys.stdin); sys.exit(F(d["update_complexity"]) < F(d["update_complexity_bound"]))'
err="$tmp/command.err"
exits() {  # the command must exit with status $1, one stderr line and no traceback
  local want=$1 status=0
  shift
  "$@" 2> "$err" || status=$?
  cat "$err"
  [ "$status" -eq "$want" ] || { echo "$* exited $status, expected $want"; exit 1; }
  [ "$(wc -l < "$err")" -eq 1 ] || { echo "expected exactly one stderr line"; exit 1; }
  if grep -q Traceback "$err"; then echo "traceback on stderr"; exit 1; fi
}
usage_error() { exits 2 "$@"; }
cw="$tmp/transformed.cw"
out="$tmp/transformed.out"
python -m ubcode.cli encode --spec "$transformed" --seed 3 --out "$cw"
# 3 survivors overdetermine the data (the decoder checks they agree); 2 pin it exactly
for erased in 0 1 2 3 0,1 0,2 0,3 1,2 1,3 2,3; do
  python -m ubcode.cli decode --spec "$transformed" --in "$cw" --erased "$erased" --out "$out"
  diff "$out" "$cw"
done
flipped="$tmp/flipped.cw"  # node 1's first symbol XOR 1 stays in GF(8)
python -c 'import sys; c = open(sys.argv[1]).read().split("\n"); c[1] = format(int(c[1][:4], 16) ^ 1, "04x") + c[1][4:]; print("\n".join(c), end="")' \
  "$cw" > "$flipped"
exits 1 python -m ubcode.cli decode --spec "$transformed" --in "$flipped" --erased 0 --out "$out"
for j in 0 1 2 3; do
  # (n - 1) * alpha' / 2 = 3 * 16 / 2 symbols per repair
  python -m ubcode.cli repair --spec "$transformed" --in "$cw" --node "$j" --out "$out" \
    | grep -qx total,24
  diff "$out" "$cw"
done
codeword() {  # construct an mrmub spec, encode it with seed 16, diff against the golden file,
  # then decode it with the nodes $2 (its last n-k) erased and diff again
  local golden=$1 erased=$2 spec="$tmp/codeword.json"
  shift 2
  python -m ubcode.cli construct --kind mrmub "$@" --out "$spec"
  python -m ubcode.cli encode --spec "$spec" --seed 16 --out "$cw"
  diff "$cw" "tests/golden/$golden"
  python -m ubcode.cli decode --spec "$spec" --in "$cw" --erased "$erased" --out "$out"
  diff "$out" "$cw"
}
codeword codeword_4_2_q8_r2_systematic_seed16.txt 2,3 --n 4 --k 2 --m 2,2,2,2 --q 8 --transform-rounds 2
codeword codeword_6_4_q25_r3_systematic_seed16.txt 4,5 --n 6 --k 4 --m 4,4,4,4,4,4 --q 25 --transform-rounds 3
codeword codeword_6_3_q65536_systematic_seed16.txt 3,4,5 --n 6 --k 3 --m 6,6,6,6,6,6 --q 65536
usage_error python -m ubcode.cli construct --kind mrmub --n 4 --k 0 --m 2,2,2,2 \
  --out "$tmp/spec.json"
usage_error env UBCODE_SEED=abc python -m ubcode.cli bounds --n 4 --k 2 --m 2,2,2,2
deep="$tmp/deep.json"
python -c 'print("[" * 200000 + "]" * 200000)' > "$deep"
usage_error python -m ubcode.cli verify "$deep"
rounds3="$tmp/rounds3.json"  # a (4, 2) chain holds at most 2 pairs
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["transform"]["pairs"].append([2, 3]); print(json.dumps(d))' \
  tests/golden/spec_4_2_q8_r2.json > "$rounds3"
usage_error python -m ubcode.cli encode --spec "$rounds3" --out "$tmp/rounds3.cw"
echo "process checks passed"
