"""The README's command-line examples, run and checked value by value.

Statistics, variance ratios, bandwidths and bootstrap bands must agree to
1e-10 relative, so an equivalent computation (FFT roundoff of another numpy
build) passes; p-values, counts, dates, flags and the describe table must
match exactly.
"""

import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from mdhtest.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
RTOL = 1e-10
# the values that come out of floating-point sums; every other is exact
CLOSE = {"statistic", "vr", "bandwidth", "ci_low", "ci_high"}


def _examples():
    """(argv, shown output lines) for each command of the usage block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1]
    lines = iter(block.split("```", 1)[0].splitlines())
    examples = []
    for line in lines:
        if line.startswith("mdhtest "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# ") and line != "# ...":
            examples[-1][1].append(line[2:])
    return examples


def _check(name, shown, got):
    """One shown value against the printed one, both as text or both parsed."""
    if name in CLOSE:
        assert float(got) == pytest.approx(float(shown), rel=RTOL, abs=0.0), name
    else:
        assert got == shown, name


def test_usage_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, shown in _examples():
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        command = argv[0]
        ran.append(command)
        if command == "simulate":
            assert not shown and Path(argv[argv.index("--out") + 1]).is_file()
        elif command == "describe":
            got = [line.split() for line in out.splitlines()]
            assert got == [line.split() for line in shown]
        elif command in ("avr", "gs"):
            want, got = json.loads("\n".join(shown)), json.loads(out)
            assert list(got) == list(want)
            for name in want:
                _check(name, want[name], got[name])
        else:
            want = list(csv.reader(shown))
            got = list(csv.reader(io.StringIO(out)))[: len(want)]
            assert len(got) == len(want) and got[0] == want[0]
            for want_row, got_row in zip(want[1:], got[1:]):
                for name, a, b in zip(want[0], want_row, got_row, strict=True):
                    _check(name, a, b)
    assert ran == ["simulate", "describe", "avr", "gs", "roll"]
