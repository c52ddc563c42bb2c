#!/usr/bin/env bash
# Pre-merge check: the tier-1 tests, the benchmark's self-test, and a 3-s
# seed-0 run of every workload in BENCHMARK.json.  Every step runs; the
# script exits non-zero if any test fails or any run does not report
# "correct": true.  The runs write their reports to .perfbench/ and change
# nothing else.  Then scripts/rss_probe.py reports the peak memory and time
# of one 4096x4096 encode, decode and accumulate; it never fails the check.
# Last, it prints the line count of each src/statjpeg module and their
# total, then that total beside the one at HEAD, so a change can quote its
# size before and after.
#
#   scripts/verify.sh
set -uo pipefail
cd "$(dirname "$0")/.." || exit 2
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0
python3 -m pytest -q --continue-on-collection-errors || status=1
python3 -m pytest -q perfbench || status=1

workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 3 | tail -n 1)
    python3 - "$workload" "$result" <<'PY' || status=1
import json
import sys

workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
ok = result["metrics"]["ok_ops_frac"]["value"]
print(f"{workload}: correct {str(result['correct']).lower()}, "
      f"{result['failed']} of {result['attempted']} checks failed, ok_ops_frac {ok}")
sys.exit(0 if result["correct"] is True else 1)
PY
done
python3 scripts/rss_probe.py || echo "rss_probe: failed; not counted against this check" >&2
echo "src/statjpeg line counts:"
wc -l src/statjpeg/*.py
# the same total at HEAD, read through git show, for a before/after quote
if head_total=$(git ls-tree --name-only HEAD src/statjpeg/ 2>/dev/null | grep '\.py$' |
        while read -r path; do git show "HEAD:$path"; done | wc -l); then
    echo "src/statjpeg total: $(cat src/statjpeg/*.py | wc -l) in the working tree," \
        "$head_total at HEAD"
fi
if [ "$status" -ne 0 ]; then
    echo "verify: FAILED (see the failing step above)" >&2
fi
exit "$status"
