"""Run each CLI call of one workload pass once and report peak memory.

Usage: python3 rss_child.py <src dir> <plan.json>

``plan.json`` is a JSON list of argument lists.  Prints one JSON object
with the process's peak resident set size and the number of calls that
did not exit 0.  Run in its own process so that the peak belongs to the
program alone, not to the benchmark that generated the inputs.
"""

import contextlib
import io
import json
import resource
import sys

sys.path.insert(0, sys.argv[1])
from perscoh.cli import main  # noqa: E402

with open(sys.argv[2]) as fh:
    plan = json.load(fh)
failed = 0
for argv in plan:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            failed += main(argv) != 0
        except (Exception, SystemExit):
            failed += 1
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "attempted": len(plan), "failed": failed}))
