"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Set-up is everything before the first simulated step: importing delaycomp,
parsing the config (cli-run) and building the scenarios, gain and setpoint,
plus one run of a single step, which covers the per-scenario precomputation
inside ``sim.run``. Usage: setup_probe.py <workload> <seed>
"""

import time

_START = time.perf_counter()

import random  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = workloads.WORKLOADS[name]
    workload.first_step(workload.draw(random.Random(seed)))
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
