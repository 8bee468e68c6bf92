"""Benchmark of the affgebra verifier: one workload per run.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics: set-up time
(median of fresh-interpreter probes), throughput, case latency p50/p95
and peak RSS, plus the failed share.  With ``--trace 1`` it runs the
digest prefix once plainly and once under the span tracer (which also
covers the in-process set-up) and reports the per-layer metrics instead;
traced numbers never feed the end-to-end ones.

Every timing is calibrated against the stdlib reference kernel in
``kernel.py``: value = raw * K_ref / K, where K is the mean of the two
kernel ticks taken just before and just after the case (or set-up step)
that produced it; ticks are taken about every 30 ms between cases.  Raw
values stay in the run record under ``perfbench/out/``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
CACHES = {
    "classes.subspace": ("classes", "subspace"),
    "classes.sampling_data": ("classes", "_sampling_data"),
    "transforms.conjugators": ("transforms", "_conjugators"),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def calibrated_s(run, ticker, k_ref: float) -> list[float]:
    """Each case's raw time scaled by the ticks around it."""
    return [raw * k_ref / ticker.k(i) for raw, i in zip(run.raw_s, run.tick)]


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- environment -------------------------------------------------------------


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "affgebra").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def environment(api) -> dict:
    rat = type(api.scalars.RAT(0))
    return {
        "python": platform.python_version(),
        "rational_backend": f"{rat.__module__}.{rat.__qualname__}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- set-up ------------------------------------------------------------------


def probe_setup(workload: str) -> dict:
    """Set-up of one fresh interpreter, from ``import affgebra`` to warm
    caches: raw seconds and calibration K of each step."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, k_ref: float) -> dict:
    probe_setup(workload)  # writes bytecode and warms the file cache; not counted
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES):
        steps = probe_setup(workload)["steps"]
        raw.append(sum(r for r, _ in steps))
        calibrated.append(sum(r * k_ref / k for r, k in steps))
    return {"raw_s": raw, "calibrated_s": calibrated, "median_s": statistics.median(calibrated)}


# -- cases -------------------------------------------------------------------


class Pass:
    """Outcomes of the cases of one run or one pass, in order."""

    def __init__(self, prefix_rounds: int):
        self.prefix_rounds = prefix_rounds
        self.raw_s: list[float] = []
        self.tick: list[int] = []  # index of the kernel tick before each case
        self.items: list[int] = []
        self.failures: list[dict] = []
        self.known_defect_failures = 0
        self.bytes_in = self.bytes_out = 0
        self.digest = hashlib.sha256()
        self.rounds = 0

    def run_round(self, api, workload, seed, index, specs, ticker, tracer=None) -> None:
        prepared = [workloads.prepare(api, case, specs) for case in workloads.round_cases(workload, seed, index)]
        for prep in prepared:
            case = prep.case
            if tracer is not None:
                tracer.case_id = case.id
            self.tick.append(ticker.last)
            start = time.perf_counter()
            try:
                result = prep.call()
            except Exception as exc:  # an exception escaping the program is a failed case
                elapsed = time.perf_counter() - start
                outcome = workloads.Outcome(False, 0, f"raise:{type(exc).__name__}",
                                            f"{type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - start
                outcome = workloads.judge(prep, result)
            self.raw_s.append(elapsed)
            self.items.append(outcome.items)
            self.bytes_in += outcome.bytes_in
            self.bytes_out += outcome.bytes_out
            if not outcome.ok:
                self.failures.append({"case": case.id, "reason": outcome.reason,
                                      "known_defect": case.known_defect})
                if case.known_defect:
                    self.known_defect_failures += 1
            if index < self.prefix_rounds and not case.known_defect:
                self.digest.update(f"{case.id}\t{outcome.output}\n".encode())
            ticker.maybe()
        if tracer is not None:
            tracer.case_id = None
        self.rounds += 1

    @property
    def unexpected_failures(self) -> int:
        return len(self.failures) - self.known_defect_failures


def run_rounds(api, workload, seed: int, specs: dict, seconds: float | None = None, tracer=None) -> tuple:
    """Whole rounds: just the digest prefix when ``seconds`` is None, else
    until ``seconds`` have passed, the prefix is done and at least
    MIN_CASES cases ran.  Returns the pass, its ticker and the wall time."""
    run = Pass(workload.prefix_rounds)
    ticker = kernel.Ticker()
    ticker.tick()
    start = time.perf_counter()
    index = 0
    while True:
        run.run_round(api, workload, seed, index, specs, ticker, tracer)
        index += 1
        wall = time.perf_counter() - start
        if index >= workload.prefix_rounds and (
                seconds is None or (wall >= seconds and len(run.raw_s) >= workloads.MIN_CASES)):
            ticker.tick()
            return run, ticker, wall


# -- the two kinds of run -----------------------------------------------------


def end_to_end(api, workload, args, k_ref, record) -> tuple:
    run, ticker, wall = run_rounds(api, workload, args.seed, {}, args.seconds)
    case_s = calibrated_s(run, ticker, k_ref)
    case_ms = [s * 1000 for s in case_s]
    raw_ms = [s * 1000 for s in run.raw_s]
    items = sum(run.items)
    metrics = {
        "setup_s": record["setup"]["median_s"],
        "items_per_s": items / sum(case_s),
        "case_ms_p50": percentile(case_ms, 50),
        "case_ms_p95": percentile(case_ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record["calibration"]["k_run_s"] = ticker.mean()
    record["calibration"]["ticks"] = len(ticker.ticks)
    record["calibration"]["tick_spread"] = spread(ticker.ticks)
    record["measured"] = {
        "rounds": run.rounds, "cases": len(run.raw_s), "items": items, "wall_s": wall,
        "raw": {"items_per_s": items / sum(run.raw_s),
                "case_ms_p50": percentile(raw_ms, 50),
                "case_ms_p95": percentile(raw_ms, 95)},
        "samples_beyond_p95": sum(1 for v in case_ms if v > metrics["case_ms_p95"]),
    }
    record["failed_share"] = len(run.failures) / len(run.raw_s)
    return run, metrics


def cache_counts(api) -> dict:
    out = {}
    for name, (module, attr) in CACHES.items():
        info = getattr(getattr(api, module), attr).cache_info()
        out[name] = (info.hits, info.misses)
    return out


class TracedSections:
    """Runs code under the tracer and adds up the cache lookups made
    while it was installed."""

    def __init__(self, api):
        self.api = api
        self.tracer = tracing.Tracer(tracing.LAYER_FUNCTIONS)
        self.targets = tracing.resolve_targets()
        self.hits = dict.fromkeys(CACHES, 0)
        self.misses = dict.fromkeys(CACHES, 0)
        self.ticks: list[float] = []  # kernel ticks of every traced section

    @contextlib.contextmanager
    def on(self, case_id=None):
        before = cache_counts(self.api)
        self.tracer.install(self.targets)
        self.tracer.case_id = case_id
        try:
            yield self.tracer
        finally:
            self.tracer.uninstall()
            self.tracer.case_id = None
            after = cache_counts(self.api)
            for name in CACHES:
                self.hits[name] += after[name][0] - before[name][0]
                self.misses[name] += after[name][1] - before[name][1]


def traced(api, workload, args, k_ref, record, sections) -> tuple:
    """Digest prefix plainly, then under the tracer; per-layer metrics
    over the traced set-up and the traced pass."""
    specs: dict = {}
    run_rounds(api, workload, args.seed, specs)  # first calls of a fresh process run slow; not counted
    plain, plain_ticker, plain_wall = run_rounds(api, workload, args.seed, specs)
    with sections.on() as tracer:
        run, ticker, traced_wall = run_rounds(api, workload, args.seed, specs, tracer=tracer)
    sections.ticks += ticker.ticks
    not_restored = tracer.verify_restored()

    plain_cal = sum(calibrated_s(plain, plain_ticker, k_ref))
    traced_cal = sum(calibrated_s(run, ticker, k_ref))
    scale = k_ref / statistics.fmean(sections.ticks)
    metrics = {}
    for name, (calls, self_s) in tracer.totals().items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_s * 1000 * scale
    for name in CACHES:
        lookups = sections.hits[name] + sections.misses[name]
        metrics[f"{name}.lookups"] = lookups
        metrics[f"{name}.hit_ratio"] = sections.hits[name] / lookups if lookups else 0.0
    metrics["checks.trials"] = tracer.trials
    metrics["cli.bytes_in"] = run.bytes_in
    metrics["cli.bytes_out"] = run.bytes_out
    metrics["trace.overhead_ratio"] = traced_cal / plain_cal
    record["calibration"].update({"plain_k_run_s": plain_ticker.mean(), "k_run_s": ticker.mean(),
                                  "ticks": len(sections.ticks), "tick_spread": spread(sections.ticks)})
    record["trace"] = {
        "not_restored": not_restored,
        "plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "plain_calibrated_s": plain_cal, "traced_calibrated_s": traced_cal,
        "plain_digest": plain.digest.hexdigest(), "spans": len(tracer.spans),
        "self_ms_raw": {n: s * 1000 for n, (_, s) in tracer.totals().items()},
    }
    spans_path = OUT / f"spans-{workload.name}-s{args.seed}.json"
    write_spans(spans_path, tracer)
    record["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    return run, plain, not_restored, metrics


def write_spans(path: Path, tracer) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[nid, round((s - origin) * 1e9), round((e - origin) * 1e9), parent, case]
            for nid, s, e, parent, case in tracer.spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": tracer.names, "time_unit": "ns",
                   "columns": ["name", "start", "end", "parent", "case"], "spans": rows}, handle)


# -- main ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "affgebra" / "__init__.py").is_file():
        print(f"error: no affgebra sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    reference = load_reference()
    workload = workloads.WORKLOADS[args.workload]
    k_ref = reference["k_ref_s"]
    record = {"workload": workload.name, "item": workload.item, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "calibration": {"k_ref_s": k_ref}}
    if args.trace == 0:
        record["setup"] = measure_setup(workload.name, k_ref)

    sys.path.insert(0, str(SRC))
    for _ in range(3):
        kernel.tick()  # the first ticks of a fresh interpreter run slow
    start = time.perf_counter()
    api = workloads.load_api()
    sections = TracedSections(api) if args.trace else None
    with sections.on("setup") if sections else contextlib.nullcontext():
        ticker = kernel.Ticker()
        ticker.tick()
        for _ in workload.warm(api):
            pass
        ticker.tick()
    record["in_process_setup_raw_s"] = time.perf_counter() - start
    if sections:
        sections.ticks += ticker.ticks
    record["environment"] = environment(api)

    problems = []
    if args.trace == 0:
        run, metrics = end_to_end(api, workload, args, k_ref, record)
    else:
        run, plain, not_restored, metrics = traced(api, workload, args, k_ref, record, sections)
        if not_restored:
            problems.append(f"bindings not restored: {not_restored}")
        if plain.digest.hexdigest() != run.digest.hexdigest():
            problems.append("traced digest differs from the plain digest")
    digest = run.digest.hexdigest()
    expected = reference["digests"].get(workload.name) if args.seed == workloads.DEFAULT_SEED else None
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} differs from the reference {expected}")
    if run.unexpected_failures:
        problems.append(f"{run.unexpected_failures} cases failed outside the known defects")

    record.update({"digest": digest, "digest_expected": expected, "problems": problems,
                   "attempted": len(run.raw_s), "failed": len(run.failures),
                   "failures": run.failures[:50], "metrics": metrics})
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{workload.name}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    units = END_TO_END_UNITS if args.trace == 0 else {}
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units.get(name, metric_unit(name))}")
    if args.trace == 0:
        print(f"{workload.name} failed_share = {record['failed_share']:.6g} share "
              f"({len(run.failures)} of {len(run.raw_s)} cases; "
              f"{run.known_defect_failures} known defects)")
        print(f"{workload.name} cases = {len(run.raw_s)}, beyond p95 = {record['measured']['samples_beyond_p95']}")
    for problem in problems:
        print(f"{workload.name} PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(run.raw_s),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units.get(name, metric_unit(name))}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def metric_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".lookups") or name == "checks.trials":
        return "count"
    if name.endswith(".self_ms"):
        return "ms"
    if name.startswith("cli.bytes"):
        return "bytes"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
