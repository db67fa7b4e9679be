#!/usr/bin/env bash
# Scenario-suite smoke test for the declarative target/scenario subsystem.
#
# Runs `study suite examples/scenarios` in both isolation modes and checks:
#   1. every scenario passes and the summary artifacts exist;
#   2. the two modes produce byte-identical per-scenario result.json files;
#   3. the scenario-driven arrestment-quick result is byte-identical to the
#      legacy `study --quick` artifact (the declarative path is a
#      re-spelling of the preset path, not a parallel implementation), and
#      that artifact's sha256 equals the pinned value;
#   4. an invalid scenario directory exits with the pinned usage code 2 and
#      names the offending TOML key path.
#
# Usage: scripts/scenario_suite_smoke.sh [path-to-study-binary]

set -euo pipefail

STUDY="${1:-target/release/study}"
if [[ ! -x "$STUDY" ]]; then
    echo "building study binary..."
    cargo build --release -p permea-analysis --bin study
    STUDY=target/release/study
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== suite, in-process isolation =="
"$STUDY" suite examples/scenarios --out "$WORK/inproc" | tee "$WORK/inproc.log"
grep -q "3/3 scenarios passed" "$WORK/inproc.log"
for f in suite.json suite.txt arrestment-quick/result.json \
         five-module-extended-models/result.json \
         mask-pipeline-fep/result.json; do
    if [[ ! -s "$WORK/inproc/$f" ]]; then
        echo "FAIL: missing suite artifact $f" >&2
        exit 1
    fi
done

echo "== suite, process isolation =="
"$STUDY" suite examples/scenarios --isolation process --out "$WORK/proc" \
    | tee "$WORK/proc.log"
grep -q "3/3 scenarios passed" "$WORK/proc.log"

echo "== isolation modes must agree byte for byte =="
for d in arrestment-quick five-module-extended-models mask-pipeline-fep; do
    cmp "$WORK/inproc/$d/result.json" "$WORK/proc/$d/result.json"
done

echo "== scenario quick study == legacy --quick, byte for byte =="
"$STUDY" --quick --out "$WORK/legacy" >/dev/null
cmp "$WORK/inproc/arrestment-quick/result.json" "$WORK/legacy/result.json"
# Absolute pin: the quick study's result.json bytes. Changing it needs a
# note saying why (see EXPERIMENTS.md, "Pinned digests").
QUICK_SHA256=eb5ba6098f66b15594508809db9c13ba37cfc3e6bfe942a552fb54833eb38b21
SHA=$(sha256sum "$WORK/legacy/result.json" | cut -d' ' -f1)
echo "quick result.json sha256: $SHA"
if [[ "$SHA" != "$QUICK_SHA256" ]]; then
    echo "FAIL: quick result.json sha256 $SHA, pinned $QUICK_SHA256" >&2
    exit 1
fi

echo "== invalid scenario exits 2 with the offending key path =="
mkdir -p "$WORK/bad"
cat >"$WORK/bad/broken.toml" <<'EOF'
[target]
name = "arrestment"

[campaign]
times_ms = [700]
tyop = 1

[error-model]
kind = "zero"
EOF
set +e
"$STUDY" suite "$WORK/bad" >"$WORK/bad.log" 2>&1
CODE=$?
set -e
if [[ "$CODE" != 2 ]]; then
    echo "FAIL: invalid scenario suite exited $CODE, expected 2" >&2
    cat "$WORK/bad.log" >&2
    exit 1
fi
grep -q "campaign.tyop" "$WORK/bad.log"

echo "PASS: scenario suite identical across isolation modes," \
     "quick scenario matches the preset artifact (sha256 $SHA)"
