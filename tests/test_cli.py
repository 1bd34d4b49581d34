import json
import time

import pytest

from gring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_describe(capsys):
    code, out, _ = run(capsys, "ring", "describe", "--presentation", "<g1,g2|>")
    assert code == 0
    assert "lam1, lam2, m12" in out


def test_ring_describe_three_generators(capsys):
    code, out, _ = run(
        capsys, "ring", "describe", "--json", "--presentation", "<g1,g2,g3|>"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["variables"]) == 7
    assert len(doc["relations"]) == 1


def test_ring_describe_cyclic_dimension(capsys):
    code, out, _ = run(
        capsys, "ring", "describe", "--json", "--presentation", "<g1|g1^4>"
    )
    doc = json.loads(out)
    assert doc["vector_space_dimension"] == 3


def test_ring_describe_from_file(tmp_path, capsys):
    f = tmp_path / "pres.txt"
    f.write_text("<g1|g1^2>\n", encoding="utf-8")
    code, out, _ = run(capsys, "ring", "describe", "--file", str(f))
    assert code == 0
    assert "lam1" in out


def test_ring_describe_timeout_zero_exit_three(capsys):
    args = ("ring", "describe", "--presentation", "<g1,g2|g1^5,g2^7>")
    code, out, _ = run(capsys, *args, "--json", "--timeout", "0")
    assert code == 3
    assert json.loads(out) == {
        "presentation": "<g1,g2|g1^5,g2^7>",
        "verdict": "timeout",
    }
    code, out, _ = run(capsys, *args, "--timeout", "0")
    assert code == 3
    assert out.strip() == "verdict: timeout"


def test_ring_describe_generous_timeout_changes_nothing(capsys):
    args = ("ring", "describe", "--json", "--presentation", "<g1,g2|g1^2,g2^3>")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--timeout", "600")
    assert code1 == code2 == 0
    assert out1 == out2


def test_ideal_hash(capsys):
    code, out, _ = run(
        capsys,
        "ideal",
        "hash",
        "--presentation",
        "<g1,g2|>",
        "--words",
        "g1^2,g2^3",
    )
    assert code == 0
    assert "lam1" in out


def test_ideal_bullet(capsys):
    code, out, _ = run(
        capsys, "ideal", "bullet", "--presentation", "<g1|>", "--words", "g1"
    )
    assert code == 0
    assert "lam1 - 1" in out


def test_ideal_hashhash_empty(capsys):
    code, out, _ = run(
        capsys, "ideal", "hashhash", "--presentation", "<g1,g2|>", "--words", ""
    )
    assert code == 0
    assert "(zero ideal)" in out


def test_normalgen_certified_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "normalgen",
        "--presentation",
        "<g1,g2|g1^2,g2^3>",
        "--words",
        "g1*g2*g1*g2",
    )
    assert code == 0
    assert "CertifiedNo" in out


def test_normalgen_inconclusive_exit_two(capsys):
    code, out, _ = run(
        capsys, "normalgen", "--presentation", "<g1|>", "--words", "g1"
    )
    assert code == 2
    assert "Inconclusive" in out


def test_normalgen_timeout_exit_three(capsys):
    # (g1*g2^-2*g1^-1*g2*g1*g2)^5: without a deadline this runs for minutes.
    t0 = time.monotonic()
    code, out, _ = run(
        capsys,
        "normalgen",
        "--json",
        "--presentation",
        "<g1,g2|g1^5,g2^7>",
        "--words",
        "*".join(["g1*g2^-2*g1^-1*g2*g1*g2"] * 5),
        "--timeout",
        "1",
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "timeout"
    assert time.monotonic() - t0 < 10


def test_normalgen_timeout_zero_exit_three(capsys):
    # --timeout 0 is a bound like any other, not "no bound"
    code, out, _ = run(
        capsys,
        "normalgen",
        "--json",
        "--presentation",
        "<g1,g2|g1^5,g2^7>",
        "--words",
        "*".join(["g1*g2^-2*g1^-1*g2*g1*g2"] * 5),
        "--timeout",
        "0",
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "timeout"


def test_boyer_timeout_exit_three(capsys):
    args = ("boyer", "--s", "2", "--t", "3", "--r", "2", "--word", "g1*g2")
    code, out, _ = run(capsys, *args, "--json", "--timeout", "0")
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "timeout"
    assert doc["instance"]["word"] == "g1*g2"
    code, out, _ = run(capsys, *args, "--timeout", "0")
    assert code == 3
    assert out.strip() == "verdict: timeout"


def test_boyer_generous_timeout_changes_nothing(capsys):
    args = ("boyer", "--s", "2", "--t", "3", "--r", "2", "--word", "g1*g2", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--timeout", "600")
    assert code1 == code2 == 0
    assert out1 == out2


def test_boyer_certificate_command(capsys):
    code, out, _ = run(
        capsys, "boyer", "--s", "2", "--t", "3", "--r", "2", "--word", "g1*g2"
    )
    assert code == 0
    assert "does not normally generate C2*C3" in out


def test_boyer_json_deterministic(capsys):
    args = ("boyer", "--s", "2", "--t", "3", "--r", "2", "--word", "g1*g2", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["conclusion"]


def test_sw_static_checks_command(capsys):
    code, out, _ = run(capsys, "sw", "static-checks")
    assert code == 0
    assert "FAIL" not in out


def test_sw_verify_command(capsys):
    code, out, _ = run(
        capsys,
        "sw",
        "verify",
        "--r", "2", "--s", "3", "--t", "5",
        "--word", "g1*g2*g3",
    )
    assert code == 0
    assert "w1-minus-W-in-J" in out


def test_sw_verify_timeout_exit_code(capsys):
    # an impossible deadline: the properness basis cannot even start
    code, out, _ = run(
        capsys,
        "sw",
        "verify",
        "--r", "2", "--s", "3", "--t", "5",
        "--word", "g1*g2*g3",
        "--properness",
        "--timeout", "1e-9",
    )
    assert code == 3
    assert "timeout" in out


def test_sw_probe_command(capsys):
    code, out, _ = run(
        capsys, "sw", "probe", "--c3", "1", "--trials", "3", "--seed", "2"
    )
    assert code == 0
    assert "no counterexample" in out


def test_oracle_fuzz_command(capsys):
    code, out, _ = run(
        capsys, "oracle", "fuzz", "--json", "--trials", "25", "--seed", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["seed"] == 7


def test_identity_selftest_command(capsys):
    code, out, _ = run(
        capsys, "identity", "selftest", "--seed", "1", "--pool", "12",
        "--max-len", "4",
    )
    assert code == 0
    assert "all identities hold" in out


def test_error_exit_code(capsys):
    code, _, err = run(
        capsys, "normalgen", "--presentation", "<g1|", "--words", "g1"
    )
    assert code == 1
    assert "error" in err


def test_exponent_overflow_is_an_error(monkeypatch, capsys):
    from gring import cli
    from gring.kernel import EXP_MAX
    from gring.poly import Poly

    def overflowing(*args, **kwargs):
        return Poly.variable("x") ** (EXP_MAX + 1)

    monkeypatch.setattr(cli, "run_identity_suite", overflowing)
    code, out, err = run(capsys, "identity", "selftest")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(EXP_MAX) in err


def test_word_parse_error(capsys):
    code, _, err = run(
        capsys, "boyer", "--s", "2", "--t", "3", "--r", "2", "--word", "g9"
    )
    assert code == 1
    assert "g9" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sw", "probe", "--c0", "abc"),
        ("sw", "probe", "--c2", "1/0"),
        ("ring", "describe", "--file", "{missing}"),
        ("ideal", "hash", "--file", "{missing}"),
        ("normalgen", "--file", "{missing}", "--words", "g1"),
        ("ring", "describe", "--file", "{tmp}"),
        ("ring", "describe", "--file", "{binary}"),
        ("oracle", "fuzz", "--gens", "0"),
        ("oracle", "fuzz", "--height", "0"),
        ("oracle", "fuzz", "--max-len", "-1"),
        ("oracle", "fuzz", "--trials", "-1"),
        ("sw", "probe", "--trials", "-1"),
        ("identity", "selftest", "--pool", "0"),
    ],
    ids=[
        "c0-not-a-number",
        "c2-zero-denominator",
        "describe-missing-file",
        "ideal-missing-file",
        "normalgen-missing-file",
        "file-is-a-directory",
        "file-not-utf8",
        "fuzz-no-generators",
        "fuzz-zero-height",
        "fuzz-negative-length",
        "fuzz-negative-trials",
        "probe-negative-trials",
        "selftest-empty-pool",
    ],
)
def test_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff<g1|>")
    argv = [a.format(missing=missing, tmp=tmp_path, binary=binary) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
