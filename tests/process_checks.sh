#!/usr/bin/env bash
# Process-level checks of the `ubcode` command: output bytes and exit codes.
#
# Run from anywhere with
#     bash -e -o pipefail tests/process_checks.sh
# It exits non-zero at the first failed command, diff or exit-code assertion.
#
# 1. A three-round GF(25) transformed spec: verify --json prints its golden
#    report byte for byte, every check ok, its seed-16 golden codeword decodes
#    byte for byte under each of its 15 two-node erasures (each a cold decode
#    of its kept set, on entry-list rows), and every node repairs byte for
#    byte at the cut-set figure.  An (8, 4) irregular MUB spec over GF(32)
#    (packed elimination) and a (6, 3) MR-MUB spec over GF(2^16) (entry-list
#    elimination) each verify --json as their golden reports, every check ok.
#    The reports carry the ranks: update bandwidth, the mds check's detail
#    and the factor grids' check.
# 2. The demos and two bounds reports match the golden files.  A two-round
#    transformed spec constructs byte for byte as its golden file over the
#    default systematic assemblies and verifies with exit 0; its verify --json
#    reports every check ok and an update complexity no lower than the paper's
#    bound; its codeword decodes byte for byte under every 1- and 2-node
#    erasure, a copy with one survivor symbol flipped fails to decode with
#    exit 1 and one stderr line, and the codeword repairs every node byte for
#    byte at the cut-set figure.  A one-round (4, 2) spec whose pair is (0, 1)
#    repairs every node byte for byte at 12, 12, 16 and 16 symbols.  The three
#    seeded codewords of tests/test_cli.py's CODEWORD_CASES, a two-round
#    (4, 2) GF(7) codeword, the one prime-field golden, and two flat GF(32)
#    codewords (the benchmark's (10, 6) update-stream code and the (8, 4)
#    irregular MUB spec, on packed parity columns) match their default-build
#    golden files and decode byte for byte with their last n-k nodes erased.
#    A bad construct, a malformed UBCODE_SEED, a spec nested 200,000 deep, a
#    (4, 2) spec with three pairing rounds, a spec whose transform.g is not
#    the field's primitive element and a spec whose params.m disagrees with
#    its matrices each exit 2 with one stderr line and no traceback.  A
#    non-MDS (4, 2) spec verifies under UBCODE_SEED=2 with exit 1, all four
#    checks reported, a failed workload-audit and no stderr.
# 3. The README's command-line block runs as written, each command with
#    `ubcode` replaced by `python -m ubcode.cli`, in a scratch directory, and
#    each exits 0, its documented status.
set -e -o pipefail
cd "$(dirname "$0")/.."
repo=$PWD
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
tmp=$(mktemp -d "${RUNNER_TEMP:-/tmp}/process_checks.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
ok_checks='import json, sys; checks = json.load(sys.stdin)["checks"]; sys.exit(not all(c["ok"] for c in checks))'
all_checks_ok() {  # verify --json on the spec $1 reports every check ok
  python -m ubcode.cli verify "$1" --json | python -c "$ok_checks"
}
verifies_as() {  # verify --json on the spec $1 prints the golden file $2, every check ok
  python -m ubcode.cli verify "$1" --json | diff - "tests/golden/$2"
  python -c "$ok_checks" < "tests/golden/$2"
}

# -- 1. a three-round GF(25) transformed spec, then a GF(32) and a GF(2^16) spec --

spec="$tmp/spec_b.json"
cw="$tmp/spec_b.cw"
out="$tmp/spec_b.out"
python -m ubcode.cli construct --kind mrmub --n 6 --k 4 --m 4,4,4,4,4,4 --q 25 \
  --transform-rounds 3 --out "$spec"
verifies_as "$spec" verify_6_4_q25_r3_systematic.json
golden=tests/golden/codeword_6_4_q25_r3_systematic_seed16.txt
for erased in 0,1 0,2 0,3 0,4 0,5 1,2 1,3 1,4 1,5 2,3 2,4 2,5 3,4 3,5 4,5; do
  python -m ubcode.cli decode --spec "$spec" --in "$golden" --erased "$erased" --out "$out"
  diff "$out" "$golden"
done
python -m ubcode.cli encode --spec "$spec" --seed 7 --out "$cw"
for j in 0 1 2 3 4 5; do
  # (n - 1) * alpha' / 2 = 5 * 48 / 2 symbols per repair
  python -m ubcode.cli repair --spec "$spec" --in "$cw" --node "$j" --out "$out" \
    | grep -qx total,120
  diff "$out" "$cw"
done
python -m ubcode.cli construct --kind mub --n 8 --k 4 --m 8,8,4,4,0,12,4,8 --out "$tmp/spec_a.json"
verifies_as "$tmp/spec_a.json" verify_8_4_q32_mub_systematic.json
python -m ubcode.cli construct --kind mrmub --n 6 --k 3 --m 6,6,6,6,6,6 --q 65536 \
  --out "$tmp/spec_c.json"
verifies_as "$tmp/spec_c.json" verify_6_3_q65536_systematic.json

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
all_checks_ok "$transformed"
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
pair01="$tmp/pair01.json"  # one round on the pair (0, 1) instead of (n-2, n-1)
python -m ubcode.cli construct --kind mrmub --n 4 --k 2 --m 2,2,2,2 --q 8 \
  --transform-rounds 1 --out "$tmp/round1.json"
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["transform"]["pairs"] = [[0, 1]]; print(json.dumps(d))' \
  "$tmp/round1.json" > "$pair01"
python -m ubcode.cli encode --spec "$pair01" --seed 5 --out "$cw"
for case in 0,12 1,12 2,16 3,16; do
  # paired: (n - 1) * alpha' / 2 = 3 * 8 / 2; unpaired: k = 2 base columns of 4 per instance
  python -m ubcode.cli repair --spec "$pair01" --in "$cw" --node "${case%,*}" --out "$out" \
    | grep -qx "total,${case#*,}"
  diff "$out" "$cw"
done
codeword() {  # construct a spec of the kind $3, encode it with seed 16, diff against the
  # golden file, then decode it with the nodes $2 (its last n-k) erased and diff again
  local golden=$1 erased=$2 kind=$3 spec="$tmp/codeword.json"
  shift 3
  python -m ubcode.cli construct --kind "$kind" "$@" --out "$spec"
  python -m ubcode.cli encode --spec "$spec" --seed 16 --out "$cw"
  diff "$cw" "tests/golden/$golden"
  python -m ubcode.cli decode --spec "$spec" --in "$cw" --erased "$erased" --out "$out"
  diff "$out" "$cw"
}
codeword codeword_4_2_q8_r2_systematic_seed16.txt 2,3 mrmub --n 4 --k 2 --m 2,2,2,2 --q 8 --transform-rounds 2
codeword codeword_4_2_q7_r2_systematic_seed16.txt 2,3 mrmub --n 4 --k 2 --m 2,2,2,2 --q 7 --transform-rounds 2
codeword codeword_6_4_q25_r3_systematic_seed16.txt 4,5 mrmub --n 6 --k 4 --m 4,4,4,4,4,4 --q 25 --transform-rounds 3
codeword codeword_6_3_q65536_systematic_seed16.txt 3,4,5 mrmub --n 6 --k 3 --m 6,6,6,6,6,6 --q 65536
# the benchmark's update-stream code and spec a (dataless node 4), both flat over GF(32)
codeword codeword_10_6_q32_systematic_seed16.txt 6,7,8,9 mrmub --n 10 --k 6 \
  --m 12,12,12,12,12,12,12,12,12,12
codeword codeword_8_4_q32_mub_systematic_seed16.txt 4,5,6,7 mub --n 8 --k 4 --m 8,8,4,4,0,12,4,8
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
mixer1="$tmp/mixer1.json"  # every round mixes through the primitive element 2 of GF(8), never 1
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["transform"]["g"] = 1; print(json.dumps(d))' \
  tests/golden/spec_4_2_q8_r2.json > "$mixer1"
usage_error python -m ubcode.cli encode --spec "$mixer1" --out "$tmp/mixer1.cw"
params_m="$tmp/params_m.json"  # the stored params are checked against the matrices' shapes
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["params"]["m"] = [2, 2, 2, 4]; print(json.dumps(d))' \
  tests/golden/spec_4_2_q8_r2.json > "$params_m"
usage_error python -m ubcode.cli encode --spec "$params_m" --out "$tmp/params_m.cw"
corrupt="$tmp/corrupt.json"  # A[0][1] zeroed: not MDS, and seed 2's workload repair cannot solve
python -m ubcode.cli construct --kind mrmub --n 4 --k 2 --m 2,2,2,2 --out "$tmp/mrmub.json"
python -c 'import json, sys; d = json.load(open(sys.argv[1])); b = d["matrices"]["A"][0][1]; b["entries"] = [[0] * b["cols"]] * b["rows"]; print(json.dumps(d))' \
  "$tmp/mrmub.json" > "$corrupt"
status=0
UBCODE_SEED=2 python -m ubcode.cli verify "$corrupt" > "$out" 2> "$err" || status=$?
cat "$out" "$err"
[ "$status" -eq 1 ] || { echo "verify exited $status, expected 1"; exit 1; }
[ ! -s "$err" ] || { echo "expected no stderr"; exit 1; }
[ "$(cut -d' ' -f1 "$out" | tr '\n' ' ')" = "factor-grids mds feasibility workload-audit " ]
grep -qx "workload-audit   FAIL  column rank 3 < 4 unknowns" "$out"

# -- 3. the README's command-line block, as written --------------------------------

readme="$tmp/readme"
mkdir "$readme"
# The first code block after the heading, continuation lines joined: one command a line.
awk '/^## Command-line tool/ { s = 1 } s && /^```/ { if (b) exit; b = 1; next } b' README.md \
  | sed -e ':a' -e '/\\$/N; s/\\\n//; ta' -e 's/^ubcode /python -m ubcode.cli /' > "$readme/commands"
[ -s "$readme/commands" ] && ! grep -qv '^python -m ubcode.cli ' "$readme/commands"
while read -r command; do
  (cd "$readme" && export PYTHONPATH="$repo/src:$PYTHONPATH" && eval "$command") < /dev/null \
    || { echo "README command exited $?, expected 0: $command"; exit 1; }
done < "$readme/commands"
echo "process checks passed"
