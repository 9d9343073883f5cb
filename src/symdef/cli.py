"""Command-line front end: verification subcommands, JSON/text reports,
deterministic output, and meaningful exit codes.

Exit codes: 0 verified, 1 falsified, 2 inconclusive within the stated
bounds, 64 usage error, 70 engine fault (an unexpected exception; its report
and traceback go to stderr, never a verdict; also a report stream closed
before the report was written).  The JSON report is the contract; the text
format renders the same payload for reading.  Identical inputs produce
byte-identical JSON (no timestamps, no environment lookups).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional, Sequence

from . import __version__
from .catalog import build_cocycle, calibrate_convention, lemma23_check, parse_catalog_id
from .cohomology import (
    BoundsSpec,
    NoSolutionWithinBounds,
    Witness,
    cohomology_dim,
    coboundary_solve,
    is_cocycle,
)
from .deformation import (
    DeformationSpec,
    build_infinitesimal,
    check_published_conditions,
    derived_condition_verdicts,
    example1_family,
    obstruction_classes,
    proportional_up_to_scalar,
    published_condition,
    verify_homomorphism,
)
from .kernel import UsageError, format_rational, parse_rational

VERIFIED, FALSIFIED, INCONCLUSIVE, USAGE, ENGINE_FAULT = 0, 1, 2, 64, 70

_VERDICT_CODE = {"verified": VERIFIED, "falsified": FALSIFIED, "inconclusive": INCONCLUSIVE}


def _parse_bounds(text: Optional[str]) -> Optional[BoundsSpec]:
    if text is None:
        return None
    try:
        order_str, _, degree_str = text.partition(",")
        return BoundsSpec(int(order_str), int(degree_str))
    except ValueError as exc:
        raise UsageError(f"--bounds expects 'order,degree', got {text!r}") from exc


def _report(command: str, inputs: dict, result: dict, verdict: str) -> dict:
    return {
        "command": command,
        "input": inputs,
        "engine_version": __version__,
        "sign_convention": calibrate_convention(),
        "result": result,
        "verdict": verdict,
    }


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_verify_cocycle(args) -> tuple[dict, str]:
    cid = parse_catalog_id(args.id)
    cochain = build_cocycle(cid)
    closed = is_cocycle(cochain)
    result: dict = {"id": str(cid), "is_cocycle": closed}
    if not closed:
        return result, "falsified"
    base = coboundary_solve(cochain, _parse_bounds(args.bounds))
    if isinstance(base, Witness):
        result["coboundary"] = True
        return result, "falsified"
    bumped = coboundary_solve(cochain, base.bounds.bumped())
    result["coboundary"] = False
    result["bounds"] = base.bounds.to_json()
    result["stable_under_bump"] = isinstance(bumped, NoSolutionWithinBounds)
    result["note"] = "no-solution-within-bounds is inconclusive by construction; stability under bumped bounds is the nontriviality evidence"
    return result, "verified" if result["stable_under_bump"] else "inconclusive"


def _cmd_cohomology_dim(args) -> tuple[dict, str]:
    weights = (parse_rational(args.lam), parse_rational(args.mu))
    outcome = cohomology_dim(weights, args.degree, args.algebra, _parse_bounds(args.bounds))
    result = {
        "algebra": args.algebra,
        "lambda": format_rational(weights[0]),
        "mu": format_rational(weights[1]),
        "degree": args.degree,
        "dim": outcome.dim,
        "stabilized": outcome.stabilized,
        "per_weight_component": {str(k): v for k, v in sorted(outcome.per_weight.items())},
        "examined_weight_keys": list(outcome.examined_keys),
        "note": "weight components outside the truncation are not examined",
    }
    return result, "verified" if outcome.stabilized else "inconclusive"


def _require_resonant_band(spec: DeformationSpec, command: str, m: str) -> None:
    """UsageError unless the spec has a resonant band: without one there is
    no condition to derive or check, and a verdict would be vacuous."""
    if not spec.resonant_range():
        raise UsageError(f"{command} needs a resonant band: {m} >= 2 (classical) "
                         f"or {m} >= 1 (super)")


def _cmd_obstruction(args) -> tuple[dict, str]:
    spec = DeformationSpec.resonant_spec(args.flavor, args.m, args.window)
    _require_resonant_band(spec, "obstruction", "--m")
    action = build_infinitesimal(spec)
    report = obstruction_classes(action, _parse_bounds(args.bounds))
    reassembled = report.verify_reassembly(action)
    comparisons = []
    for entry in report.blocks:
        published = published_condition(spec, entry.k)
        scalar = proportional_up_to_scalar(entry.class_coeff, published)
        comparisons.append(
            {
                "k": entry.k,
                "engine": str(entry.class_coeff),
                "published": str(published),
                "agreement": (
                    f"equal up to nonzero scalar {format_rational(scalar)}"
                    if scalar is not None
                    else "discrepancy"
                ),
            }
        )
    result = report.to_json()
    result["reassembly_exact"] = reassembled
    result["published_comparison"] = comparisons
    verdict = "verified" if report.verdict == "derived" and reassembled else "inconclusive"
    return result, verdict


def _load_spec(path: str) -> DeformationSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read spec file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec file {path!r} is not valid JSON: {exc}") from exc
    return DeformationSpec.from_json(payload)


def _cmd_integrability(args) -> tuple[dict, str]:
    spec = _load_spec(args.spec)
    if spec.assignment is None:
        raise UsageError("integrability needs spec.params with numeric even parameters")
    _require_resonant_band(spec, "integrability", "spec.m")
    formal = build_infinitesimal(DeformationSpec(spec.flavor, spec.delta, spec.window))
    published = check_published_conditions(spec)
    derived = derived_condition_verdicts(formal, spec, _parse_bounds(args.bounds))
    per_k = []
    for pub, der in zip(published, derived):
        per_k.append(
            {
                "k": pub.k,
                "published_generator": pub.generator,
                "published_value": pub.value,
                "published_satisfied": pub.satisfied,
                "derived_generator": der.generator,
                "derived_value": der.value,
                "derived_satisfied": der.satisfied,
            }
        )
    all_ok = all(d.satisfied for d in derived)
    result = {
        "spec": spec.to_json(),
        "conditions": per_k,
        "derived_all_satisfied": all_ok,
        "published_all_satisfied": all(p.satisfied for p in published),
        "note": "exit verdict follows the engine-derived conditions",
    }
    return result, "verified" if all_ok else "falsified"


def _cmd_flat_deform(args) -> tuple[dict, str]:
    spec = _load_spec(args.spec)
    action = build_infinitesimal(spec)
    report = verify_homomorphism(action)
    result = {
        "spec": spec.to_json(),
        "homomorphism": report.passed,
        "checked_pairs": [list(p) for p in report.checked_pairs],
    }
    if not report.passed:
        (i, j), residual = report.first_failure()
        result["first_failure"] = {
            "pair": [i, j],
            "residual_blocks": sorted(
                f"{j_}->{i_}" for (j_, i_) in residual.blocks
            ),
        }
    return result, "verified" if report.passed else "falsified"


def _cmd_example1(args) -> tuple[dict, str]:
    chunks = args.alphas.split(",")
    if not all(chunk.strip() for chunk in chunks):
        raise UsageError(f"--alphas has an empty entry: {args.alphas!r}")
    alphas = [parse_rational(chunk) for chunk in chunks]
    report = example1_family(args.m, alphas, args.window)
    result = report.to_json()
    if not report.solved_flat:
        return result, "inconclusive"
    return result, "verified" if report.printed_flat else "falsified"


def _cmd_lemma23(args) -> tuple[dict, str]:
    report = lemma23_check(args.k)
    result = {
        "k": args.k,
        "passed": report.passed,
        "residual_pairs": sorted(str(p) for p in report.residuals),
    }
    return result, "verified" if report.passed else "falsified"


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# options whose value may start with '-': negative rationals, alpha lists
_SIGNED_OPTIONS = ("--lambda", "--mu", "--alphas")


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    """`--lambda -1/2` as `--lambda=-1/2`; argparse reads `-1/2` as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


# the subcommands whose solves read --bounds; the others refuse it
_BOUNDED_COMMANDS = ("verify-cocycle", "cohomology-dim", "obstruction", "integrability")


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="symdef", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name in _BOUNDED_COMMANDS:
            p.add_argument("--bounds", help="truncation override as 'order,degree'")
        p.set_defaults(handler=handler)
        return p

    p = add("verify-cocycle", _cmd_verify_cocycle,
            "cocycle + nontriviality check for a catalog family")
    p.add_argument("--id", required=True)

    p = add("cohomology-dim", _cmd_cohomology_dim,
            "truncated cohomology dimension of one block")
    p.add_argument("--algebra", choices=("sl2", "osp12"), required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--degree", type=int, choices=(1, 2), required=True)

    p = add("obstruction", _cmd_obstruction,
            "derive integrability conditions for a resonant window")
    p.add_argument("--flavor", choices=("classical", "super"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--window", type=int)

    p = add("integrability", _cmd_integrability,
            "evaluate integrability conditions at a parameter point")
    p.add_argument("--spec", required=True)

    p = add("flat-deform", _cmd_flat_deform,
            "build a deformation and verify the bracket relation")
    p.add_argument("--spec", required=True)

    p = add("example1", _cmd_example1, "audit the printed one-parameter family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alphas", required=True)
    p.add_argument("--window", type=int)

    p = add("lemma23", _cmd_lemma23,
            "parity-decomposition identity for the odd 2-cocycle family")
    p.add_argument("--k", type=int, required=True)
    return parser


def run(argv: Sequence[str]) -> tuple[dict, int]:
    """Execute one CLI invocation; returns (report, exit_code)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
        inputs = {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("handler", "format") and value is not None
        }
        result, verdict = args.handler(args)
        report = _report(args.command, inputs, result, verdict)
    except UsageError as exc:
        report = {
            "command": argv[0] if argv else None,
            "error": str(exc),
            "verdict": "usage-error",
        }
        return report, USAGE
    except Exception as exc:  # an engine bug must not read as a verdict
        traceback.print_exc(file=sys.stderr)
        report = {
            "command": argv[0] if argv else None,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "verdict": "engine-fault",
        }
        return report, ENGINE_FAULT
    return report, _VERDICT_CODE[verdict]


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    return "\n".join(_render_text(report))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report, code = run(argv)
    # parsed on its own, so a command line that fails to parse still gets it
    fmt_parser = _CliParser(add_help=False)
    fmt_parser.add_argument("--format", choices=("text", "json"), default="text")
    try:
        fmt = fmt_parser.parse_known_args(argv)[0].format
    except UsageError:
        fmt = "text"
    stream = sys.stderr if code in (USAGE, ENGINE_FAULT) else sys.stdout
    try:
        print(render(report, fmt), file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader left before the report was written: no verdict was
        # delivered, so this must not exit 1 ("falsified") with a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        print("symdef: the report stream was closed before the report was written",
              file=sys.stderr)
        return ENGINE_FAULT
    return code


if __name__ == "__main__":
    sys.exit(main())
