"""Benchmark of the orbitlab CLI: end-to-end metrics, or per-layer ones with --trace 1.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh ``bench/worker.py`` interpreter, one at a
time, so no memo of the program survives from one repetition to the next.
Repetitions start while the next is expected to end within ``--seconds`` of
the start (at least one runs).  Each one's verdicts are checked: a positive run must exit 0 with ``"pass": true``,
and ``translate-battery`` also runs one untimed negative control that must
exit 1 with a witness in its ``cocycle-identity`` check.

Without tracing the metrics are those of ``end_to_end`` in BENCHMARK.json:
medians over the repetitions of ``verdict_s`` and ``peak_rss_mb``, the median
``setup_s`` over the repetitions and a few set-up-only starts, the exact
``cases_checked`` of one repetition, and ``pass_share``.  With tracing,
untraced and traced repetitions alternate; the metrics are the ``per_layer``
ones, medians over the traced repetitions, plus the traced ``verdict_s`` and
its excess over the untraced one.  A traced run also checks that every
layer records calls on each workload that should exercise it.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/orbitlab`` in the
current directory the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers
from worker import NEGATIVE_CHECK, invocations

SETUP_PROBES = 5
HARD_LIMIT_S = 170  # stop starting work well before the 180 s budget
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

now = time.monotonic


class Fatal(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Spawner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = worker_env()
        self.expected = len(invocations(workload, seed))  # verdicts per repetition
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, *flags) -> tuple[float, dict | None]:
        """Start one worker; return (spawn stamp, its result or None)."""
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed), *flags]
        t_spawn = now()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t_spawn),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker {' '.join(flags)} passed the time limit")
            return t_spawn, None
        if proc.returncode != 0:
            self.problems.append(
                f"worker {' '.join(flags)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
            )
            return t_spawn, None
        return t_spawn, json.loads(proc.stdout.splitlines()[-1])

    def setup_s(self) -> float | None:
        t_spawn, result = self.spawn("--setup-only")
        return None if result is None else result["t_first_call"] - t_spawn

    def repetition(self, traced: bool) -> dict | None:
        """One timed repetition; its verdicts count toward attempted/failed."""
        expected = self.expected
        t_spawn, result = self.spawn(*(["--trace"] if traced else []))
        self.attempted += expected
        if result is None:
            self.failed += expected
            return None
        bad = [v for v in result["verdicts"] if v["exit"] != 0 or not v["pass"]]
        self.failed += len(bad) + expected - len(result["verdicts"])
        if bad:
            self.problems.append(f"positive run failed: {bad[0]}")
        result["setup_s"] = result["t_first_call"] - t_spawn
        result["cases_checked"] = sum(v["checked"] for v in result["verdicts"])
        return result

    def negative_control(self) -> None:
        """Untimed: a corrupted cocycle table must fail with a witness."""
        self.attempted += 1
        _, result = self.spawn("--negative")
        verdict = None if result is None else result["verdicts"][0]
        ok = (
            verdict is not None
            and verdict["exit"] == 1
            and not verdict["pass"]
            and NEGATIVE_CHECK in verdict["witnessed"]
        )
        if not ok:
            self.failed += 1
            self.problems.append(f"negative control did not fail with a witness: {verdict}")


def spread(values: list) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def run(workload: str, seed: int, seconds: int, trace: bool, manifest: dict) -> dict:
    start = now()
    spawner = Spawner(workload, seed, start + HARD_LIMIT_S)
    # Warm-up start: writes bytecode caches and faults in the libraries.
    if spawner.setup_s() is None:
        raise Fatal("; ".join(spawner.problems))
    setups = [] if trace else [s for s in (spawner.setup_s() for _ in range(SETUP_PROBES)) if s is not None]

    # Start another repetition only while it is expected (from the last one)
    # to end within --seconds, so a slow host makes runs fewer, not longer.
    plain, traced = [], []
    while True:
        use_trace = trace and len(traced) < len(plain)
        t_rep = now()
        result = spawner.repetition(use_trace)
        if result is None:
            break
        (traced if use_trace else plain).append(result)
        t_end = now()
        if (not trace or traced) and (t_end - start) + (t_end - t_rep) > seconds:
            break
    if workload == "translate-battery":
        spawner.negative_control()

    reps = plain + traced
    cases = {r["cases_checked"] for r in reps}
    if len(cases) > 1:
        spawner.problems.append(f"cases_checked differs between repetitions: {sorted(cases)}")
    samples = {
        "verdict_s": [r["verdict_s"] for r in plain],
        "setup_s": setups + [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "cases_checked": [r["cases_checked"] for r in plain[:1]],
    }
    if trace:
        for name in traced[0]["layers"] if traced else ():
            samples[name] = [r["layers"][name] for r in traced]
        samples["trace.verdict_s"] = [r["verdict_s"] for r in traced]
        if traced and plain:
            samples["trace.overhead_s"] = [
                statistics.median(samples["trace.verdict_s"]) - statistics.median(samples["verdict_s"])
            ]
    wanted = manifest["per_layer" if trace else "end_to_end"]
    if trace:
        spawner.problems.extend(self_test(workload, traced, [m["name"] for m in wanted]))
    attempted, failed = spawner.attempted, spawner.failed
    samples["pass_share"] = [(attempted - failed) / attempted]
    summary = {m["name"]: (samples[m["name"]], m["unit"]) for m in wanted if samples.get(m["name"])}
    missing = [m["name"] for m in wanted if m["name"] not in summary]
    if missing:
        spawner.problems.append(f"no samples for {len(missing)} metrics: {' '.join(missing)}")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"attempted {attempted}  failed {failed}  failed_share {failed / attempted:.4g}")
    for name, (values, unit) in summary.items():
        median, q1, q3 = spread(values)
        print(f"  {name:40s} median {median:<10.6g} q1 {q1:<10.6g} q3 {q3:<10.6g} "
              f"n={len(values):<3d} {unit:6s} [{' '.join(f'{v:.4g}' for v in values)}]")
    for problem in spawner.problems:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": not spawner.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (values, unit) in summary.items()
        },
    }


def self_test(workload: str, traced: list, names: list) -> list[str]:
    """Every layer the workload should exercise recorded at least one call.

    The worker already refused to run if any original function stayed
    reachable after wrapping, so a zero here means the layer was not called.
    """
    problems = []
    for rep in traced:
        for metric in names:
            if workload in layers.exercised_by(metric):
                source = layers.metric_source(metric)
                if rep["layers"][f"{source}.calls"] == 0:
                    problems.append(f"{metric}: no call to {source} on {workload}")
    return sorted(set(problems))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=layers.ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join("src", "orbitlab", "__init__.py")):
            raise Fatal("no src/orbitlab here; run from the root of an orbitlab checkout")
        with open("BENCHMARK.json") as fh:
            manifest = json.load(fh)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), manifest)
    except Fatal as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
