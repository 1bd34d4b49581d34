"""Command-line interface.

JSON output (``--json``) is the stable contract surface: identical flags
(seeds included) produce byte-identical documents.  Exit codes: 0 for
success / a certified conclusion, 1 for errors, 2 for an inconclusive
outcome, 3 for a timeout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .casestudies import (
    BoyerInstance,
    SWInstance,
    boyer_certificate,
    conjecture_probe,
    sw_static_checks,
    sw_verify,
)
from .errors import GringError, GroebnerTimeout
from .identities import run_identity_suite
from .ideals import (
    Verdict,
    bullet_generators,
    hash_generators,
    hashhash_generators,
    normally_generates_check,
    quotient_ring_of_presentation,
)
from .oracle import fuzz_bar
from .words import parse_presentation, parse_word

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_TIMEOUT = 3


def _read_presentation(args):
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise GringError(f"cannot read {args.file}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise GringError(f"cannot read {args.file}: not UTF-8 text") from None
    else:
        text = args.presentation
    if not text:
        raise GringError("no presentation given (use --presentation or --file)")
    return parse_presentation(text)


def _rational(flag, text):
    """``text`` as a Fraction; GringError naming ``flag`` if it is none."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GringError(f"{flag}: not a rational number: {text!r}") from None


def _parse_words(text, names):
    words = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            words.append(parse_word(chunk, names))
    return words


def _deadline(args):
    """The ``time.monotonic()`` value ``--timeout`` seconds from now, or None."""
    return None if args.timeout is None else time.monotonic() + args.timeout


def _check_lines(report):
    """One PASS/FAIL line per check of a CheckReport."""
    return [
        f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}"
        + (f": {c['detail']}" if c["detail"] else "")
        for c in report.checks
    ]


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_ring_describe(args) -> int:
    pres = _read_presentation(args)
    try:
        qr = quotient_ring_of_presentation(pres, deadline=_deadline(args))
    except GroebnerTimeout:
        payload = {"presentation": pres.render(), "verdict": "timeout"}
        _emit(args, payload, ["verdict: timeout"])
        return EXIT_TIMEOUT
    desc = qr.describe()
    desc["presentation"] = pres.render()
    dim = qr.vdim()
    desc["vector_space_dimension"] = dim
    lines = [
        f"presentation: {pres.render()}",
        f"variables: {', '.join(desc['variables'])}",
        f"reduced basis ({len(desc['relations'])} relations):",
        *[f"  {r}" for r in desc["relations"]],
        f"vector-space dimension: {dim if dim is not None else 'infinite'}",
    ]
    _emit(args, desc, lines)
    return EXIT_OK


def _cmd_ideal(args) -> int:
    pres = _read_presentation(args)
    words = _parse_words(args.words or "", pres.names)
    make = {
        "hash": hash_generators,
        "hashhash": hashhash_generators,
        "bullet": bullet_generators,
    }[args.kind]
    spec = make(words, pres.generator_count)
    payload = spec.to_dict()
    gens = payload["generators"]
    lines = [f"{args.kind} ideal on {pres.render()}:"]
    lines += [f"  {g}" for g in gens] if gens else ["  (zero ideal)"]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_normalgen(args) -> int:
    pres = _read_presentation(args)
    words = _parse_words(args.words or "", pres.names)
    try:
        verdict = normally_generates_check(
            pres, words, use_hash=args.hash, deadline=_deadline(args)
        ).value
    except GroebnerTimeout:
        verdict = "timeout"
    payload = {
        "presentation": pres.render(),
        "words": [w.render(pres.names) for w in words],
        "via": "hash" if args.hash else "hashhash",
        "verdict": verdict,
    }
    _emit(args, payload, [f"verdict: {verdict}"])
    if verdict == "timeout":
        return EXIT_TIMEOUT
    if verdict == Verdict.CERTIFIED_NO.value:
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def _cmd_boyer(args) -> int:
    word = parse_word(args.word, ["g1", "g2"])
    inst = BoyerInstance(args.s, args.t, args.r, word)
    try:
        cert = boyer_certificate(inst, deadline=_deadline(args))
    except GroebnerTimeout:
        payload = {"instance": inst.describe(), "verdict": "timeout"}
        _emit(args, payload, ["verdict: timeout"])
        return EXIT_TIMEOUT
    lines = [
        f"theta image: {cert.theta_image}",
        f"remainder mod 1-x^2: {cert.remainder}",
        f"certified degree: {cert.degree} (raw {cert.raw_degree}, "
        f"needs >= {args.r - 1})",
        f"leading coefficient: {cert.leading_coefficient}",
        f"unit certificate: {cert.unit_certificate}",
        f"conclusion: {cert.conclusion or cert.failure}",
    ]
    _emit(args, cert.to_dict(), lines)
    return EXIT_OK if cert.certified else EXIT_INCONCLUSIVE


def _cmd_sw(args) -> int:
    if args.sw_command == "static-checks":
        report = sw_static_checks()
        _emit(args, report.to_dict(), _check_lines(report))
        return EXIT_OK if report.ok else EXIT_ERROR
    if args.sw_command == "verify":
        word = parse_word(args.word, ["g1", "g2", "g3"])
        inst = SWInstance(args.r, args.s, args.t, word)
        report = sw_verify(
            inst, check_properness=args.properness, deadline=_deadline(args)
        )
        lines = _check_lines(report)
        if report.properness is not None:
            lines.append(f"properness: {report.properness}")
            if report.properness == "proper":
                lines.append(
                    f"conclusion: {word.render()} does not normally generate "
                    f"C{args.r}*C{args.s}*C{args.t}"
                )
        _emit(args, report.to_dict(), lines)
        if report.properness == "timeout":
            return EXIT_TIMEOUT
        return EXIT_OK if report.ok else EXIT_ERROR
    if args.sw_command == "probe":
        report = conjecture_probe(
            *(_rational(f"--c{i}", getattr(args, f"c{i}")) for i in range(4)),
            seed=args.seed,
            trials=args.trials,
        )
        hits = report.instance.get("whole_ring_hits", 0)
        lines = [
            f"trials: {args.trials}, whole-ring hits: {hits}",
            "no counterexample found" if hits == 0 else "COUNTEREXAMPLE FOUND",
        ]
        _emit(args, report.to_dict(), lines)
        return EXIT_OK if hits == 0 else EXIT_ERROR
    raise GringError(f"unknown sw subcommand {args.sw_command!r}")


def _cmd_oracle(args) -> int:
    report = fuzz_bar(
        trials=args.trials,
        max_word_length=args.max_len,
        n=args.gens,
        seed=args.seed,
        height=args.height,
    )
    lines = [
        f"seed {report.seed}: {report.trials} trials, "
        f"{len(report.mismatches)} mismatches",
    ]
    for mm in report.mismatches[:5]:
        lines.append(f"  MISMATCH {mm['word']}: {mm}")
    _emit(args, report.to_dict(), lines)
    return EXIT_OK if report.ok else EXIT_ERROR


def _cmd_identity(args) -> int:
    results = run_identity_suite(
        seed=args.seed, pool_size=args.pool, max_len=args.max_len
    )
    payload = {
        "seed": args.seed,
        "pool": args.pool,
        "max_len": args.max_len,
        "results": [r.to_dict() for r in results],
    }
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.samples} samples)"
        for r in results
    ]
    ok = all(r.ok for r in results)
    lines.append("all identities hold" if ok else "IDENTITY FAILURES")
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    presentation = argparse.ArgumentParser(add_help=False)
    presentation.add_argument("--presentation", help="inline presentation text")
    presentation.add_argument("--file", help="file containing the presentation")
    timeout = argparse.ArgumentParser(add_help=False)
    timeout.add_argument("--timeout", type=float, default=None, help="seconds")

    ap = argparse.ArgumentParser(
        prog="gring",
        description=(
            "Obstruction calculus for normal generation via commutative "
            "group rings"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="coordinate rings of presentations")
    ringsub = ring.add_subparsers(dest="ring_command", required=True)
    describe = ringsub.add_parser(
        "describe",
        parents=[common, presentation, timeout],
        help="print ring and relations",
    )
    describe.set_defaults(func=_cmd_ring_describe)

    ideal = sub.add_parser(
        "ideal",
        parents=[common, presentation],
        help="obstruction ideal generators",
    )
    ideal.add_argument("kind", choices=["hash", "hashhash", "bullet"])
    ideal.add_argument("--words", default="", help="comma-separated words")
    ideal.set_defaults(func=_cmd_ideal)

    ng = sub.add_parser(
        "normalgen",
        parents=[common, presentation, timeout],
        help="normal-generation obstruction test",
    )
    ng.add_argument("--words", required=True, help="candidate words, comma-separated")
    ng.add_argument(
        "--hash", action="store_true", help="compare full ideals instead"
    )
    ng.set_defaults(func=_cmd_normalgen)

    boyer = sub.add_parser(
        "boyer",
        parents=[common, timeout],
        help="proper-power certificate for C_s*C_t",
    )
    boyer.add_argument("--s", type=int, required=True)
    boyer.add_argument("--t", type=int, required=True)
    boyer.add_argument("--r", type=int, required=True)
    boyer.add_argument("--word", required=True, help="word in g1, g2")
    boyer.set_defaults(func=_cmd_boyer)

    sw = sub.add_parser("sw", help="single-element checks for C_r*C_s*C_t")
    swsub = sw.add_subparsers(dest="sw_command", required=True)
    verify = swsub.add_parser(
        "verify", parents=[common, timeout], help="structural checks for one word"
    )
    verify.add_argument("--r", type=int, required=True)
    verify.add_argument("--s", type=int, required=True)
    verify.add_argument("--t", type=int, required=True)
    verify.add_argument("--word", required=True, help="word in g1, g2, g3")
    verify.add_argument("--properness", action="store_true")
    verify.set_defaults(func=_cmd_sw)
    static = swsub.add_parser(
        "static-checks", parents=[common], help="instance-independent checks"
    )
    static.set_defaults(func=_cmd_sw)
    probe = swsub.add_parser(
        "probe", parents=[common], help="randomized conjecture probe"
    )
    probe.add_argument("--c0", default="0")
    probe.add_argument("--c1", default="0")
    probe.add_argument("--c2", default="0")
    probe.add_argument("--c3", default="1")
    probe.add_argument("--trials", type=int, default=20)
    probe.add_argument("--seed", type=int, default=0)
    probe.set_defaults(func=_cmd_sw)

    oracle = sub.add_parser("oracle", help="quaternion evaluation oracle")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    fuzz = osub.add_parser(
        "fuzz", parents=[common], help="randomized engine cross-check"
    )
    fuzz.add_argument("--trials", type=int, default=500)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-len", type=int, default=12)
    fuzz.add_argument("--gens", type=int, default=3)
    fuzz.add_argument("--height", type=int, default=8)
    fuzz.set_defaults(func=_cmd_oracle)

    ident = sub.add_parser("identity", help="algebraic identity self-tests")
    isub = ident.add_subparsers(dest="identity_command", required=True)
    selftest = isub.add_parser(
        "selftest", parents=[common], help="run the identity battery"
    )
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--pool", type=int, default=60)
    selftest.add_argument("--max-len", type=int, default=6)
    selftest.set_defaults(func=_cmd_identity)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except GringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
