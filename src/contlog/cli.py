"""Command-line front end.

Subcommands: parse, eval, translate, check-t0, check-metric, quotient,
encode-fn, fuzz.  Exit status is 0 when the command (and any check it runs)
succeeds, 1 when a check fails — a witness is always printed — and 2 for
usage errors or malformed input.

With --json every command prints a single machine-readable document under
the stable schema tag "contlog.cli/1".  Commands that produce a file format
(translate, quotient, encode-fn) print the bare document instead unless
--json asks for the envelope.  fuzz always reports as JSON lines, one record
per trial, followed by a summary line.

Each command imports only what it runs: translate and check-t0 load the
coder (`contlog.translate`), and only fuzz loads the fuzz harness
(`contlog.oracle`), so a cold eval compiles neither.  A stdout closed by its
reader, like a failed --out write, ends in one error line and exit 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ContlogError, FormatError, ValidationError
from .formula import parse as parse_formula
from .hyperspace import CompactSet
from .semantics import (
    Structure,
    check_pseudometric,
    encode_function,
    eval_error_bound,
    evaluate,
    quotient,
    zero_distance_classes,
)
from .serialize import (
    library_from_json,
    manifest_to_json,
    point_to_json,
    rational_from_str,
    rational_to_str,
    signature_from_json,
    space_to_json,
    structure_from_json,
    structure_to_json,
)

CLI_SCHEMA = "contlog.cli/1"

# the names of oracle.SUITES, kept here so that building the parser does not
# load the fuzz harness
SUITE_NAMES = ("coding-exact", "coding-grid", "quantifier", "roundtrip",
               "corruption", "metric-violation", "quotient", "refinement",
               "limit")


# ---------------------------------------------------------------------------
# Input loading


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"{path} is not valid JSON: {err}") from None


def _load_structure(path: str) -> Structure:
    return structure_from_json(_read_json(path))


def _load_signature(path: str):
    return signature_from_json(_read_json(path))


def _load_library(path: str | None):
    if path is None:
        return None
    return library_from_json(_read_json(path))


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    try:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise FormatError(f"cannot read {args.formula_file}: {err}") from None


def _assignment(pairs: Sequence[str] | None) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs or ():
        var, sep, element = item.partition("=")
        if not sep or not var or not element:
            raise FormatError(f"assignments look like VAR=ELEMENT, got {item!r}")
        out[var] = element
    return out


# ---------------------------------------------------------------------------
# Output


def _decimal_str(x: Fraction) -> str | None:
    """Exact decimal form, or None when the expansion does not terminate."""
    if x.denominator == 1:
        return str(x.numerator)
    d = x.denominator
    k = 0
    for p in (2, 5):
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        k = max(k, e)
    if d != 1:
        return None
    scaled = abs(x.numerator) * 10**k // x.denominator
    digits = str(scaled).rjust(k + 1, "0")
    sign = "-" if x < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _render_scalar(x: Fraction) -> str:
    dec = _decimal_str(x)
    return dec if dec is not None else str(x)


def _render_point(p) -> str:
    if p.dimension == 1:
        return _render_scalar(p.coords[0])
    return "(" + ", ".join(_render_scalar(c) for c in p.coords) + ")"


def _render_value(value) -> str:
    if isinstance(value, CompactSet):
        return "{" + ", ".join(_render_point(p) for p in value.members) + "}"
    return _render_point(value)


def _value_json(value):
    if isinstance(value, CompactSet):
        return {"members": [point_to_json(p) for p in value.members]}
    return point_to_json(value)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        _print_json({"schema": CLI_SCHEMA, "command": args.command, **payload})
    elif human:
        print(human)


def _emit_document(args, doc: dict, extras: dict, human_note: str) -> None:
    """Write a file-format document to --out or stdout.

    --json swaps the bare document for the CLI envelope (document included),
    which also carries any command-specific extras.
    """
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as err:
            raise FormatError(f"cannot write {args.out}: {err}") from None
        _emit(args, {"ok": True, "out": args.out, **extras}, human_note)
    elif args.json:
        _print_json({"schema": CLI_SCHEMA, "command": args.command,
                     "ok": True, "document": doc, **extras})
    else:
        _print_json(doc)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse(args) -> int:
    sig = _load_signature(args.signature)
    library = _load_library(args.library)
    phi = parse_formula(_formula_text(args), sig, library)
    space = phi.value_space
    bound = eval_error_bound(phi)
    free = sorted(phi.free_vars)
    _emit(args,
          {"ok": True,
           "formula": str(phi),
           "space": space_to_json(space),
           "error_bound": rational_to_str(bound),
           "free_variables": free},
          "\n".join([f"formula: {phi}",
                     f"space: {space}",
                     f"error bound: {bound}",
                     f"free variables: {', '.join(free) if free else '(none)'}"]))
    return 0


def cmd_eval(args) -> int:
    M = _load_structure(args.structure)
    library = _load_library(args.library)
    phi = parse_formula(_formula_text(args), M.signature, library)
    res = evaluate(M, phi, _assignment(args.assign))
    _emit(args,
          {"ok": True,
           "value": _value_json(res.value),
           "error_bound": rational_to_str(res.error_bound),
           "space": space_to_json(res.space)},
          _render_value(res.value))
    return 0


def cmd_translate(args) -> int:
    from .translate import translate_signature

    if args.structure is not None:
        M = _load_structure(args.structure)
        sig = M.signature
    else:
        M = None
        sig = _load_signature(args.signature)
    ctx = translate_signature(sig, rational_from_str(args.step))
    doc = manifest_to_json(ctx, M)
    _emit_document(args, doc, {"aligned": ctx.aligned},
                   f"wrote manifest to {args.out}")
    return 0


def cmd_check_t0(args) -> int:
    from .translate import t0_violations, translate_signature

    sig = _load_signature(args.signature)
    ctx = translate_signature(sig, rational_from_str(args.step))
    N = _load_structure(args.structure)
    tol = rational_from_str(args.tol)
    violations = t0_violations(ctx, N, tol)
    ok = not violations
    _emit(args,
          {"ok": ok, "tolerance": rational_to_str(tol),
           "step": rational_to_str(ctx.step), "violations": violations},
          "alignment holds" if ok
          else "\n".join(f"violation: {v}" for v in violations))
    return 0 if ok else 1


def cmd_check_metric(args) -> int:
    M = _load_structure(args.structure)
    tol = rational_from_str(args.tol)
    report = check_pseudometric(M, tol)
    _emit(args,
          {"ok": report.ok, "tolerance": rational_to_str(tol),
           "failures": list(report.failures)},
          "pseudometric axioms hold" if report.ok
          else "\n".join(f"failure: {f}" for f in report.failures))
    return 0 if report.ok else 1


def cmd_quotient(args) -> int:
    M = _load_structure(args.structure)
    report = check_pseudometric(M)
    if not report.ok:
        _emit(args,
              {"ok": False, "failures": list(report.failures)},
              "\n".join(f"failure: {f}" for f in report.failures))
        return 1
    classes = zero_distance_classes(M)
    Q = quotient(M)
    _emit_document(args, structure_to_json(Q),
                   {"classes": [list(c) for c in classes],
                    "collapsed": len(M.universe) - len(Q.universe)},
                   f"wrote quotient ({len(Q.universe)} classes) to {args.out}")
    return 0


def _function_table(args) -> dict[str, str]:
    if args.table is not None:
        try:
            raw = json.loads(args.table)
        except json.JSONDecodeError as err:
            raise FormatError(f"--table is not valid JSON: {err}") from None
    else:
        raw = _read_json(args.table_file)
    if not isinstance(raw, Mapping):
        raise FormatError("a function table must be a JSON object")
    for key, out in raw.items():
        if not isinstance(key, str) or not isinstance(out, str):
            raise FormatError(
                f"function table entries map element tuples to elements, got {key!r}: {out!r}")
    return dict(raw)


def cmd_encode_fn(args) -> int:
    M = _load_structure(args.structure)
    table = _function_table(args)
    arities = {len(k.split(",")) for k in table}
    if len(arities) > 1:
        raise FormatError("function table keys have mixed arities")
    known = set(M.universe)
    for key, out in table.items():
        for e in key.split(",") + [out]:
            if e.strip() not in known:
                raise FormatError(f"function table mentions unknown element {e.strip()!r}")
    modulus = None if args.modulus is None else rational_from_str(args.modulus)
    try:
        extended = encode_function(M, args.name, table, modulus)
    except ValidationError as err:
        _emit(args, {"ok": False, "failures": [str(err)]}, f"failure: {err}")
        return 1
    _emit_document(args, structure_to_json(extended),
                   {"symbol": args.name,
                    "modulus": rational_to_str(extended.signature.modulus(args.name))},
                   f"wrote extended structure to {args.out}")
    return 0


def cmd_fuzz(args) -> int:
    from .oracle import FuzzConfig, fuzz, summarize

    cfg = FuzzConfig(seed=args.seed,
                     universe_size=args.universe_size,
                     formula_depth=args.depth,
                     net_size=args.net_size,
                     trials=args.trials,
                     tol=rational_from_str(args.tol))
    records = fuzz(cfg, kinds=args.suite or None)
    for record in records:
        print(json.dumps(record.as_json(), sort_keys=True))
    summary = summarize(records)
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0 if summary["failures"] == 0 else 1


# ---------------------------------------------------------------------------
# Wiring


def _add_formula_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="file containing the formula text")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="contlog",
        description="Evaluate, translate and check continuous-logic structures.")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="machine-readable output (schema contlog.cli/1)")

    p = sub.add_parser("parse", parents=[shared],
                       help="typecheck a formula against a signature")
    p.add_argument("--signature", required=True, help="signature JSON file")
    p.add_argument("--library", help="connective library JSON file")
    _add_formula_source(p)
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("eval", parents=[shared],
                       help="evaluate a formula in a structure")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--library", help="connective library JSON file")
    p.add_argument("--assign", action="append", metavar="VAR=ELEMENT",
                   help="bind a free variable (repeatable)")
    _add_formula_source(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("translate", parents=[shared],
                       help="build the grid translation manifest for a signature")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--signature", help="signature JSON file")
    group.add_argument("--structure",
                       help="structure JSON file (its signature is used; "
                            "the transported structure is included)")
    p.add_argument("--step", required=True, help="grid step, e.g. 1/4")
    p.add_argument("--out", help="write the manifest here instead of stdout")
    p.set_defaults(handler=cmd_translate)

    p = sub.add_parser("check-t0", parents=[shared],
                       help="check a translated structure lands on the grids")
    p.add_argument("--signature", required=True, help="source signature JSON file")
    p.add_argument("--structure", required=True, help="translated structure JSON file")
    p.add_argument("--step", required=True, help="grid step used by the translation")
    p.add_argument("--tol", default="0", help="alignment tolerance (default 0)")
    p.set_defaults(handler=cmd_check_t0)

    p = sub.add_parser("check-metric", parents=[shared],
                       help="check the pseudometric axioms and moduli")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--tol", default="0", help="slack allowed in each axiom (default 0)")
    p.set_defaults(handler=cmd_check_metric)

    p = sub.add_parser("quotient", parents=[shared],
                       help="collapse zero-distance elements to a metric structure")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--out", help="write the quotient here instead of stdout")
    p.set_defaults(handler=cmd_quotient)

    p = sub.add_parser("encode-fn", parents=[shared],
                       help="add a function to a structure as its graph relation")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--name", required=True, help="name for the new symbol")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", help='function table as inline JSON, e.g. {"a,b": "c"}')
    group.add_argument("--table-file", help="function table JSON file")
    p.add_argument("--modulus", help="declared Lipschitz constant for the function")
    p.add_argument("--out", help="write the extended structure here instead of stdout")
    p.set_defaults(handler=cmd_encode_fn)

    p = sub.add_parser("fuzz", parents=[shared],
                       help="run randomized cross-checks; JSON lines, one per trial")
    p.add_argument("--seed", type=int, required=True, help="random seed")
    p.add_argument("--trials", type=int, default=100,
                   help="total trials across all suites (default 100)")
    p.add_argument("--suite", action="append", metavar="NAME",
                   choices=SUITE_NAMES,
                   help="restrict to one suite (repeatable): "
                        + ", ".join(SUITE_NAMES))
    p.add_argument("--universe-size", type=int, default=4,
                   help="elements per random structure (default 4)")
    p.add_argument("--depth", type=int, default=2,
                   help="maximum formula depth (default 2)")
    p.add_argument("--net-size", type=int, default=4,
                   help="points per random value-space net (default 4)")
    p.add_argument("--tol", default="0", help="comparison tolerance (default 0)")
    p.set_defaults(handler=cmd_fuzz)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # exit 1 means a check failed; anything else that stops a command is
    # reported on one line with exit 2, never as a traceback
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone; send stdout to devnull so that the flush at
        # interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message = "cannot write output: stdout was closed by its reader"
    except ContlogError as err:
        message = str(err)
    except RecursionError:
        message = "input is nested too deeply to process"
    except Exception as err:
        message = f"internal error: {type(err).__name__}: {err}"
    print("error: " + " ".join(message.splitlines()), file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
