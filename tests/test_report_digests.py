"""Byte-identity of the reports, as a corpus of digests.

``fixtures/report_digests.json`` lists invocations, each with the exit code
and the SHA-256 of the stdout of the invocation run with ``--json``:

* ``realize`` on the 20 benchmark matrices of seeds 1-10 and 7919, written
  out as matrix strings;
* ``realize --radius 0`` on ``"1 0.3; 0.5 1.15"`` and on ``"-1"``;
* ``odometer`` at the benchmark configuration, seeds 1-10;
* both ``functoriality`` routes;
* ``gromov-check`` at 8/8/3, and the corrupted 4/3/1 run.

Each runs in-process through click's ``CliRunner``.  A report that changes
on purpose is regenerated in its own commit, which names each changed
digest and says why::

    PYTHONPATH=src python tests/test_report_digests.py
"""
import hashlib
import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from orbitlab.cli import main

DIGESTS = Path(__file__).parent / "fixtures" / "report_digests.json"
CORPUS = json.loads(DIGESTS.read_text())
COMMANDS = sorted({entry["argv"][0] for entry in CORPUS})


def run(argv: list) -> tuple[int, bytes]:
    """The exit code and the ``--json`` stdout of one invocation."""
    result = CliRunner().invoke(main, [*argv, "--json"])
    return result.exit_code, result.stdout_bytes


def mismatches(entries: list, run, out_dir: Path) -> list:
    """One line per entry whose exit code or report digest differs, naming
    its argv; the new report is written under ``out_dir`` for a diff."""
    lines = []
    for index, entry in enumerate(entries):
        code, stdout = run(entry["argv"])
        digest = hashlib.sha256(stdout).hexdigest()
        if (code, digest) != (entry["exit"], entry["sha256"]):
            path = out_dir / f"report_{index}.json"
            path.write_bytes(stdout)
            lines.append(
                f"{shlex.join(entry['argv'])}: exit {code} (pinned {entry['exit']}), "
                f"sha256 {digest} (pinned {entry['sha256']}); new report in {path}"
            )
    return lines


def test_corpus_covers_every_command():
    assert COMMANDS == ["functoriality", "gromov-check", "odometer", "realize"]
    assert len(CORPUS) == 236
    assert len({tuple(entry["argv"]) for entry in CORPUS}) == len(CORPUS)


@pytest.mark.parametrize("command", COMMANDS)
def test_reports_match_their_digests(command, tmp_path):
    entries = [entry for entry in CORPUS if entry["argv"][0] == command]
    assert mismatches(entries, run, tmp_path) == []


def test_one_changed_byte_fails_and_names_the_invocation(tmp_path):
    entry = next(e for e in CORPUS if e["argv"][0] == "realize")

    def patched(argv):
        code, stdout = run(argv)
        # the certificate's float formatting: one more digit on the constant
        return code, stdout.replace(b'"constant": ', b'"constant": 1', 1)

    lines = mismatches([entry], patched, tmp_path)
    assert len(lines) == 1
    assert lines[0].startswith(shlex.join(entry["argv"]) + ": exit 0 (pinned 0), sha256 ")
    assert (tmp_path / "report_0.json").read_bytes() != run(entry["argv"])[1]


if __name__ == "__main__":
    for entry in CORPUS:
        code, stdout = run(entry["argv"])
        entry["exit"], entry["sha256"] = code, hashlib.sha256(stdout).hexdigest()
    DIGESTS.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in CORPUS) + "\n]\n")
