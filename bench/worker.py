"""One repetition of a benchmark workload, in a fresh interpreter.

Run from the root of a source checkout:

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only | --negative]

The worker imports ``orbitlab`` from ``src/``, builds the workload's inputs
from the seed, and then calls the ``orbitlab`` command group in-process once
per invocation, with stdout captured, exactly as the console script would.
Its last stdout line is one JSON object:

* ``t_first_call``: CLOCK_MONOTONIC just before the first CLI call.  The
  parent stamps the same clock before spawning, so set-up time covers
  interpreter start, ``import orbitlab``, and input generation;
* ``verdict_s``: from the first CLI call until the last one returns;
* ``peak_rss_mb``: this process's own ``ru_maxrss``;
* ``verdicts``: per invocation, the exit code and what the report says,
  read from the exit code and the ``pass`` and ``checked`` fields only
  (and, for the negative control, the witness list of the failing check);
* ``layers``: per-layer metrics, with ``--trace``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

TRANSLATE_ARGS = ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "8",
                  "--translate-radius", "8", "--window", "3"]
NEGATIVE_ARGS = ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "4",
                 "--translate-radius", "3", "--window", "1", "--inject-corruption"]
NEGATIVE_CHECK = "cocycle-identity"


# ---------------------------------------------------------------------------
# seeded inputs


def _identity(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _shear(d, i, j, coeff):
    m = _identity(d)
    m[i][j] = coeff
    return m


def _flip(d, i):
    m = _identity(d)
    m[i][i] = Fraction(-1)
    return m


def recovery_matrices(seed: int) -> list:
    """Ten 2x2 and ten 3x3 matrices of determinant +-1.

    Each is a product of up to 10 quarter-grid shears with |coeff| <= 2,
    with an occasional sign flip; a factor is kept only while every entry
    stays within 3 in absolute value.
    """
    rng = random.Random(seed)

    def build(d):
        m = _identity(d)
        target = rng.randint(3, 10)
        ops = attempts = 0
        while ops < target and attempts < 60:
            attempts += 1
            i, j = rng.sample(range(d), 2)
            coeff = Fraction(rng.choice([k for k in range(-8, 9) if k]), 4)
            cand = _mat_mul(m, _shear(d, i, j, coeff))
            if rng.random() < 0.15:
                cand = _mat_mul(cand, _flip(d, rng.randrange(d)))
            if max(abs(x) for row in cand for x in row) <= 3:
                m = cand
                ops += 1
        return m

    return [build(2) for _ in range(10)] + [build(3) for _ in range(10)]


def matrix_text(m) -> str:
    return "; ".join(" ".join(str(x) for x in row) for row in m)


def invocations(workload: str, seed: int) -> list:
    """The CLI argument lists one repetition of ``workload`` runs."""
    if workload == "translate-battery":
        return [TRANSLATE_ARGS]
    if workload == "odometer-battery":
        return [["odometer", "--matrix", "1 1; 0 1", "--p", "3", "--depth", "4",
                 "--samples", "1000", "--window", "3", "--seed", str(seed)]]
    if workload == "realize-recovery":
        return [["realize", "--matrix", matrix_text(m), "--n", "1024"]
                for m in recovery_matrices(seed)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running and reading the CLI


def call_cli(main, argv: list) -> tuple[int, str]:
    """Run one ``orbitlab`` command in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=[*argv, "--json"], prog_name="orbitlab")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, buf.getvalue()


def read_verdict(code: int, text: str) -> dict:
    """Exit code, ``pass`` and the summed ``checked`` fields of one report."""
    try:
        report = json.loads(text)
        checks = report["checks"]
        return {
            "exit": code,
            "pass": report["pass"] is True,
            "checked": sum(int(c.get("checked") or 0) for c in checks),
            "witnessed": sorted(c.get("id", "") for c in checks
                                if c.get("pass") is False and c.get("witnesses")),
        }
    except (ValueError, KeyError, TypeError) as exc:
        return {"exit": code, "pass": False, "checked": 0, "witnessed": [],
                "error": f"unreadable report: {exc}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--negative", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    import orbitlab
    from orbitlab import cli

    if not os.path.abspath(orbitlab.__file__).startswith(src + os.sep):
        print(f"orbitlab imported from {orbitlab.__file__}, not {src}", file=sys.stderr)
        return 2
    calls = [NEGATIVE_ARGS] if args.negative else invocations(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layers import Tracer  # the script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    t_first = now()
    if args.setup_only:
        print(json.dumps({"t_first_call": t_first}))
        return 0
    outputs = []
    for call in calls:
        if tracer is None:
            outputs.append(call_cli(cli.main, call))
        else:
            outputs.append(tracer.root(call_cli, cli.main, call))
    t_last = now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "t_first_call": t_first,
        "verdict_s": t_last - t_first,
        "peak_rss_mb": peak_rss_mb,
        "verdicts": [read_verdict(code, text) for code, text in outputs],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
