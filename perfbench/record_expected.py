"""Record the expected answers of the default seed, one digest per query.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Runs the first queries of each workload's stream at seed 0 (twice as many
as a 20-second run at the workload's nominal rate) in a worker and stores
the digests of their canonical answers in ``perfbench/expected/``. A later
run at seed 0 then fails any query whose answer differs. Refuses to record
when an answer fails its independent check.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, WORKLOADS, worker

SEED = 0


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        count = int(WORKLOADS[name].nominal_rate * 40)
        objs, problem = worker(time.monotonic() + 1800, "--workload", name,
                               "--seed", str(SEED), "--mode", "fixed",
                               "--count", str(count))
        if problem:
            print(f"{name}: {problem}", file=sys.stderr)
            return 1
        queries = [o for o in objs if "i" in o]
        bad = [q for q in queries if q["error"] and "stored expected" not in q["error"]]
        if bad:
            print(f"{name}: query {bad[0]['i']} failed: {bad[0]['error']}",
                  file=sys.stderr)
            return 1
        path = HERE / "expected" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": name, "seed": SEED,
                                    "digests": [q["digest"] for q in queries]},
                                   indent=0) + "\n")
        print(f"{name}: {len(queries)} answers recorded in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
