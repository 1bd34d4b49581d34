"""Golden output of the CLI: stdout and exit code, byte for byte.

``cli_golden.json`` holds what each invocation below printed and returned.
``--json`` output is a stable contract (identical flags give identical
documents), and the text output and exit codes are pinned with it, so a
refactor that changes any of them fails here.  After a deliberate output
change, rewrite the file with ``PYTHONPATH=src python tests/test_cli_golden.py``
and review the diff.

Each invocation runs in a new interpreter, as a user's would: rendering
orders terms of equal degree by variable id, and ids are handed out in the
order a process first uses each variable.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gring

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
SRC = str(pathlib.Path(gring.__file__).resolve().parent.parent)

P23 = ("--presentation", "<g1,g2|g1^2,g2^3>")
P57 = ("--presentation", "<g1,g2|g1^5,g2^7>")
FREE2 = ("--presentation", "<g1,g2|>")
BOYER = ("boyer", "--s", "2", "--t", "3", "--r", "2", "--word", "g1*g2")
SW = ("sw", "verify", "--r", "2", "--s", "3", "--t", "5", "--word", "g1*g2*g3")
FUZZ = ("oracle", "fuzz", "--trials", "20", "--seed", "7")
SELFTEST = ("identity", "selftest", "--seed", "1", "--pool", "8", "--max-len", "1")

INVOCATIONS = [
    ("ring", "describe", *P23, "--json"),
    ("ring", "describe", *P23),
    ("ring", "describe", *P57, "--json", "--timeout", "0"),
    ("ideal", "hashhash", *FREE2, "--words", "g1^2", "--json"),
    ("ideal", "bullet", *FREE2, "--words", "g1^2"),
    ("normalgen", *P23, "--words", "g1*g2*g1*g2", "--json"),
    ("normalgen", *P57, "--words", "g1*g2", "--json", "--timeout", "0"),
    (*BOYER, "--json"),
    BOYER,
    ("boyer", "--s", "5", "--t", "7", "--r", "2", "--word", "g1*g2",
     "--json", "--timeout", "0"),
    ("sw", "static-checks", "--json"),
    ("sw", "static-checks"),
    (*SW, "--json"),
    SW,
    (*SW, "--properness", "--json", "--timeout", "0"),
    (*FUZZ, "--json"),
    FUZZ,
    (*SELFTEST, "--json"),
    SELFTEST,
]


def invoke(argv):
    """(exit code, stdout) of ``python -m gring.cli *argv``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "gring.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[" ".join(argv)]
    code, out = invoke(argv)
    assert out == expected["stdout"]
    assert code == expected["exit"]


if __name__ == "__main__":
    record = {}
    for argv in INVOCATIONS:
        code, out = invoke(argv)
        record[" ".join(argv)] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
