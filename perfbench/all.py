"""Run every workload once and print all end-to-end metrics with units.

    python3 perfbench/all.py [--seed N] [--seconds S]

Each workload runs in its own fresh interpreter through ``run.py``.  Exits
1 when any workload reports ``"correct": false``.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=600, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed with exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name} correct = {result['correct']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
