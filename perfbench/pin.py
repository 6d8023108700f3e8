"""Write digests.json: the pinned output digests of the fixed jobs.

    python3 perfbench/pin.py

Runs every job whose check is "digest" (they do not depend on the seed) once
through the CLI and records the SHA-256 of its JSON output without
``elapsed_s``.  Pin only from a commit whose test suite passes: afterwards a
job whose output drifts counts as failed.
"""

import json
import sys

from check import check_report, digest
from run import HERE, run_worker
from workloads import WORKLOADS, build


def main() -> int:
    jobs = [j for name in WORKLOADS for j in build(name, 0) if j["check"] == "digest"]
    _, reply = run_worker(jobs, False, 600)
    pinned = {}
    for job, res in zip(jobs, reply["jobs"]):
        payload = json.loads(res["out"])
        if res["code"] != 0 or check_report(payload):
            print(f"not pinned, job failed: {' '.join(job['argv'])}", file=sys.stderr)
            return 1
        pinned[" ".join(job["argv"])] = digest(payload)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
