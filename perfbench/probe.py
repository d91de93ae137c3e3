"""Set-up probe: a cold interpreter imports a workload's layers and builds
its first input, then exits.  The parent times the whole child.

    python3 perfbench/probe.py sift-4096 7
    python3 perfbench/probe.py check-elect-16 7
"""

from __future__ import annotations

import sys


def main(workload: str, seed: int) -> int:
    from simwork import (
        CHECK_BUDGET,
        CHECK_N,
        SIFT_ADVERSARIES,
        SIFT_K,
        SIFT_N,
        check_seed,
        sift_seed,
    )
    from repro.harness.runners import build_task_simulation

    if workload == "sift-4096":
        for adversary in SIFT_ADVERSARIES:
            build_task_simulation(
                "sift", "heterogeneous", n=SIFT_N, k=SIFT_K,
                adversary=adversary, seed=sift_seed(seed),
            )
        return 0
    if workload == "check-elect-16":
        from repro.check.explore import plan_trials

        first = plan_trials(CHECK_BUDGET, check_seed(seed))[0]
        build_task_simulation(
            "elect", "poison_pill", n=CHECK_N,
            adversary=first.build_adversary(), seed=first.seed,
        )
        return 0
    print(f"unknown workload {workload!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
