"""Command-line surface: classify/decompose/residues/boundary/witt-equal/selftest.

Input is a JSON problem document (see ProblemSpec); the machine-readable
result envelope goes to stdout and a short human summary to stderr.
Exit codes: 0 success, 1 input error, 2 math-domain error, 3 precision
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .base_fields import PrimeField, RationalField, is_prime
from .errors import (
    InputError,
    LarmourError,
    MathDomainError,
    ParseError,
    PrecisionFailure,
)
from .hermitian import (
    HermitianForm,
    IsometryWitness,
    LarmourSplit,
    larmour_decompose,
    validate_form,
)
from .involutions import CaseRecord, InvolutionDesc, PresentationChange, normalize_involution
from .quaternion import INF, QuatAlgebra, QuatElem, normalize_presentation, valuation_D
from .residue_maps import (
    BoundaryClass,
    HermRankClass,
    ResidueForm,
    d0,
    d1,
    divergence_warnings,
    split_boundary,
    witt_equal,
)
from .involutions import classify_case
from .valued_field import LaurentField, parse_laurent
from .base_fields import WittClassQuadFinite
from . import selftest as selftest_mod

DEFAULT_PRECISION = 32


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem document (canonical nested layout)."""

    p: object  # odd prime or "Q"
    precision: int
    a: str
    b: str
    involution: object  # "tau" or a 4-tuple of element strings
    eps: int
    form: tuple  # of 4-tuples of element strings

    def to_doc(self) -> dict:
        inv = self.involution if self.involution == "tau" else {"tau_zeta": list(self.involution)}
        return {
            "field": {"p": self.p, "precision": self.precision},
            "algebra": {"a": self.a, "b": self.b},
            "involution": inv,
            "eps": self.eps,
            "form": [list(entry) for entry in self.form],
        }


def _coord_strings(raw, where: str) -> tuple:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError("expected a 4-tuple of element strings", where)
    return tuple(str(c) for c in raw)


def parse_problem(doc: dict) -> ProblemSpec:
    """Accepts the nested schema; top-level shorthand keys also work."""
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")
    field = doc.get("field", {})
    p = field.get("p", doc.get("p"))
    if p is None:
        raise ParseError("missing field.p", "field.p")
    if p != "Q":
        try:
            prime = int(p)
        except (TypeError, ValueError):
            prime = 0
        if prime < 3 or not is_prime(prime):
            raise ParseError(f"p must be an odd prime or 'Q', got {p!r}", "field.p")
        p = prime
    raw = field.get("precision", doc.get("precision", DEFAULT_PRECISION))
    try:
        precision = int(raw)
    except (TypeError, ValueError):
        precision = 0
    if precision < 1:
        raise ParseError(f"precision must be a positive integer, got {raw!r}", "field.precision")
    algebra = doc.get("algebra", {})
    a = algebra.get("a", doc.get("a"))
    b = algebra.get("b", doc.get("b"))
    if a is None or b is None:
        raise ParseError("missing algebra constants a, b", "algebra")
    involution = doc.get("involution", "tau")
    if involution != "tau":
        if not (isinstance(involution, dict) and "tau_zeta" in involution):
            raise ParseError("involution must be \"tau\" or {\"tau_zeta\": [...]}", "involution")
        involution = _coord_strings(involution["tau_zeta"], "involution.tau_zeta")
    eps = doc.get("eps")
    if eps not in (1, -1):
        raise ParseError("eps must be 1 or -1", "eps")
    form_raw = doc.get("form", [])
    if not isinstance(form_raw, list):
        raise ParseError("form must be a list of entries", "form")
    form = tuple(_coord_strings(entry, f"form[{i}]") for i, entry in enumerate(form_raw))
    return ProblemSpec(p, precision, str(a), str(b), involution, eps, form)


@dataclass
class BuiltProblem:
    spec: ProblemSpec
    algebra: QuatAlgebra
    sigma: InvolutionDesc
    record: CaseRecord
    form: HermitianForm
    warnings: list


def build_problem(spec: ProblemSpec) -> BuiltProblem:
    warnings = []
    if spec.p == "Q":
        residue = RationalField()
        assume = True
        warnings.append("rationals residue mode: division is asserted, not certified")
    else:
        residue = PrimeField(spec.p)
        assume = False
    K = LaurentField(residue, spec.precision)
    a_raw = parse_laurent(K, spec.a)
    b_raw = parse_laurent(K, spec.b)
    algebra = normalize_presentation(K, a_raw, b_raw, assume_division=assume)
    if (str(algebra.a), str(algebra.b)) != (spec.a, spec.b):
        warnings.append(
            f"algebra constants normalized to ({algebra.a}, {algebra.b}); "
            "coordinates refer to the normalized presentation"
        )

    if spec.involution == "tau":
        sigma = InvolutionDesc.canonical()
        change = PresentationChange.identity(algebra)
    else:
        zeta = algebra.elem(*(parse_laurent(K, c) for c in spec.involution))
        sigma, change = normalize_involution(algebra, zeta)
        if not change.trivial:
            algebra = change.new_algebra
            warnings.append(
                f"presentation adapted to the twist: algebra now ({algebra.a}, {algebra.b})"
            )

    entries = []
    for coords in spec.form:
        u = change.old_algebra.elem(*(parse_laurent(K, c) for c in coords))
        entries.append(change.to_new(u))
    form = validate_form(HermitianForm(algebra, sigma, spec.eps, tuple(entries)))
    record = classify_case(algebra, sigma, spec.eps)
    warnings.extend(divergence_warnings(record))
    return BuiltProblem(spec, algebra, sigma, record, form, warnings)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _quat_doc(u: QuatElem) -> list:
    return [str(c) for c in u.co]


def _residual_doc(value) -> object:
    return "exact" if value == INF else int(value)


def _witness_doc(w: IsometryWitness, pattern) -> dict:
    return {
        "t": _quat_doc(w.t),
        "source": _quat_doc(w.source_entry),
        "target": _quat_doc(w.target_entry),
        "residual_half_units": _residual_doc(w.residual_half_units(pattern)),
    }


def _split_doc(split: LarmourSplit, record: CaseRecord) -> dict:
    pattern = record.sigma.pattern
    return {
        "h0": [_quat_doc(u) for u in split.h0.entries],
        "h1": [_quat_doc(u) for u in split.h1.entries],
        "routes": list(split.routes),
        "entry_values": [str(valuation_D(w.target_entry)) for w in split.witnesses],
        "witnesses": [_witness_doc(w, pattern) for w in split.witnesses],
    }


def _residue_form_doc(form: ResidueForm) -> dict:
    return {
        "target": {"structure": form.target.structure, "involution": form.target.involution},
        "entries": [str(e) for e in form.entries],
    }


def _class_doc(cls) -> dict:
    if isinstance(cls, WittClassQuadFinite):
        return {
            "kind": "quad_witt",
            "rank_parity": cls.rank_parity,
            "disc": None if cls.disc is None else cls.field.format_raw(cls.disc),
        }
    if isinstance(cls, HermRankClass):
        return {"kind": "herm_rank", "parity": cls.parity, "skew": cls.skew}
    raise TypeError(type(cls))


def _boundary_doc(b: BoundaryClass) -> dict:
    return {
        "c0": _class_doc(b.c0),
        "c1": None if b.c1 is None else _class_doc(b.c1),
        "is_zero": b.is_zero(),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _envelope(command: str, built: BuiltProblem) -> dict:
    return {
        "status": "ok",
        "command": command,
        "problem": built.spec.to_doc(),
        "algebra": built.algebra.descriptor(),
        "case": built.record.to_dict(),
        "warnings": list(built.warnings),
    }


def cmd_classify(built: BuiltProblem) -> dict:
    return _envelope("classify", built)


def cmd_decompose(built: BuiltProblem) -> dict:
    split = larmour_decompose(built.form, built.record)
    env = _envelope("decompose", built)
    env["decomposition"] = _split_doc(split, built.record)
    return env


def _residues_envelope(command: str, built: BuiltProblem) -> tuple[dict, LarmourSplit]:
    split = larmour_decompose(built.form, built.record)
    env = _envelope(command, built)
    env["decomposition"] = _split_doc(split, built.record)
    r0 = d0(split, built.record)
    env["residues"] = {
        "d0": _residue_form_doc(r0),
        "d1": None if built.record.s_eps == 2 else _residue_form_doc(d1(split, built.record)),
    }
    return env, split


def cmd_residues(built: BuiltProblem) -> dict:
    return _residues_envelope("residues", built)[0]


def cmd_boundary(built: BuiltProblem) -> dict:
    env, split = _residues_envelope("boundary", built)
    env["boundary"] = _boundary_doc(split_boundary(split, built.record))
    return env


def cmd_witt_equal(doc: dict) -> dict:
    if not isinstance(doc, dict) or "first" not in doc or "second" not in doc:
        raise ParseError("witt-equal input must carry 'first' and 'second' problems")
    first = build_problem(parse_problem(doc["first"]))
    second = build_problem(parse_problem(doc["second"]))
    equal = witt_equal(first.form, second.form)
    return {
        "status": "ok",
        "command": "witt-equal",
        "equal": equal,
        "case": first.record.to_dict(),
        "warnings": first.warnings + [w for w in second.warnings if w not in first.warnings],
    }


def cmd_selftest(seed: int, quick: bool) -> tuple[dict, str, bool]:
    results = selftest_mod.run_all(seed=seed, quick=quick)
    doc = {
        "status": "ok" if all(r.passed for r in results) else "failed",
        "command": "selftest",
        "seed": seed,
        "quick": quick,
        "suites": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "trials": r.trials,
                "failures": r.failures,
                "notes": r.notes[:5],
            }
            for r in results
        ],
    }
    return doc, selftest_mod.report(results), all(r.passed for r in results)


def run_command(command: str, doc: dict) -> dict:
    """Dispatch one problem document to a command; returns the envelope."""
    if command == "witt-equal":
        return cmd_witt_equal(doc)
    built = build_problem(parse_problem(doc))
    handler = {
        "classify": cmd_classify,
        "decompose": cmd_decompose,
        "residues": cmd_residues,
        "boundary": cmd_boundary,
    }.get(command)
    if handler is None:
        raise ParseError(f"unknown command {command!r}")
    return handler(built)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _read_doc(path: str | None) -> dict:
    try:
        text = sys.stdin.read() if path in (None, "-") else open(path).read()
    except OSError as e:
        raise ParseError(f"cannot read input: {e}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}")


def _apply_overrides(doc: dict, args) -> dict:
    if isinstance(doc, dict):
        if args.p is not None:
            doc.setdefault("field", {})
            doc["field"]["p"] = args.p
        if args.precision is not None:
            doc.setdefault("field", {})
            doc["field"]["precision"] = args.precision
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="larmour",
        description="Decomposition and residue maps for hermitian forms over "
        "quaternion algebras over k((t)).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "decompose", "residues", "boundary", "witt-equal"):
        cp = sub.add_parser(name)
        cp.add_argument("--input", default=None, help="JSON problem document (default stdin)")
        cp.add_argument("--precision", type=int, default=None)
        cp.add_argument("--p", default=None, help="override residue field (odd prime or Q)")
    st = sub.add_parser("selftest")
    st.add_argument("--seed", type=int, default=selftest_mod.DEFAULT_SEED)
    st.add_argument("--quick", action="store_true", help="reduced trial counts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            doc, text, ok = cmd_selftest(args.seed, args.quick)
            print(text)
            print(json.dumps(doc, indent=2), file=sys.stderr)
            return 0 if ok else 2
        doc = _apply_overrides(_read_doc(args.input), args)
        env = run_command(args.command, doc)
        print(json.dumps(env, indent=2))
        summary = f"{args.command}: {env.get('case', {}).get('case', '')}".strip()
        if "equal" in env:
            summary += f" equal={env['equal']}"
        for w in env.get("warnings", []):
            print(f"warning: {w}", file=sys.stderr)
        print(summary, file=sys.stderr)
        return 0
    except (InputError, ParseError) as e:
        _fail(args.command, e, "input_error")
        return 1
    except PrecisionFailure as e:
        _fail(args.command, e, "precision_failure")
        return 3
    except MathDomainError as e:
        _fail(args.command, e, "math_domain_error")
        return 2
    except LarmourError as e:  # pragma: no cover
        _fail(args.command, e, "error")
        return 2


def _fail(command: str, exc: Exception, kind: str):
    print(
        json.dumps(
            {"status": "error", "command": command, "error_kind": kind, "message": str(exc)},
            indent=2,
        )
    )
    print(f"{kind}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
