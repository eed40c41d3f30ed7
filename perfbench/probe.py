"""Set-up probe: a fresh interpreter imports gammaprod and gammaprod.cli and
runs the workload's warm-up, then prints its import time as JSON.

run.py times this process from the outside for ``setup_s``.

    python3 perfbench/probe.py --workload scalar-mix
"""

import json
import os
import sys
import time


def main() -> None:
    # os and sys are loaded at interpreter start, so the timed span holds
    # gammaprod's own imports and nothing of the harness.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter()
    import gammaprod.cli  # noqa: F401

    import_s = time.perf_counter() - t0

    import argparse

    import workloads

    gp = workloads.import_gammaprod()  # checks where gammaprod came from
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    args = ap.parse_args()
    workloads.warm_up(args.workload, workloads.Executor(gp))
    print(json.dumps({"import_s": import_s}))


if __name__ == "__main__":
    main()
