"""Set-up probe: time ``import affgebra`` plus cache warming in a fresh
interpreter.

    python3 perfbench/probe.py <workload>

Prints ``{"steps": [[raw_s, k_s], ...]}``: the raw time of each set-up
step (the import, then one step per warmed spec) and the calibration K of
the two kernel ticks around it.  The ticks themselves are not timed as
set-up, and neither is the workload's input generation.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kernel  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]
    for _ in range(3):
        kernel.tick()  # the first ticks of a fresh interpreter run slow
    ticker = kernel.Ticker()
    ticker.tick()
    steps = []
    start = time.perf_counter()
    api = workloads.load_api()
    steps.append(time.perf_counter() - start)
    ticker.tick()
    warm = workload.warm(api)
    while True:
        start = time.perf_counter()
        done = next(warm, StopIteration) is StopIteration
        steps.append(time.perf_counter() - start)
        ticker.tick()
        if done:
            break
    print(json.dumps({"steps": [[raw, ticker.k(i)] for i, raw in enumerate(steps)]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
