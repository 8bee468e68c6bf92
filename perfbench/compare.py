"""Compare two sets of run records against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``run-<workload>-s<seed>-t0.json`` records written
by ``run.py`` (copy ``perfbench/out`` aside between commits).  For every
workload and end-to-end metric it prints both medians, the base spread
(quartile distance over median) and the verdict: ``worse`` when the new
median is worse than the base median by more than the bound,
``unresolved`` when the base spread is wider than the bound, else ``ok``.

Refuses (exit 2) to compare runs with different rational backends, and
reports a digest mismatch between records of the same workload and seed
as a failure (exit 1): outputs must be byte-identical.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("run-*-t0.json"))]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    if not base or not new:
        print("error: no run records found", file=sys.stderr)
        return 2
    backends = {r["environment"]["rational_backend"] for r in base + new}
    if len(backends) != 1:
        print(f"error: runs use different rational backends: {sorted(backends)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    digests: dict = {}
    for r in base + new:
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"{workload} seed {seed}: output digests differ between runs")
            status = 1
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base if r["workload"] == workload]
            n = [r["metrics"][name] for r in new if r["workload"] == workload]
            mb, mn = statistics.median(b), statistics.median(n)
            worse = (mn - mb) / mb if metric["better"] == "lower" else (mb - mn) / mb
            spread = (lambda q: (q[2] - q[0]) / q[1])(statistics.quantiles(b, n=4)) if len(b) > 1 else 0.0
            if worse > metric["bound"]:
                verdict = "worse"
                status = 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:12s} {name:12s} base {mb:10.4g} new {mn:10.4g} {metric['unit']:5s} "
                  f"worse by {worse:+.3f} (bound {metric['bound']}, base spread {spread:.3f}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
