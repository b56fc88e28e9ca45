"""Command-line front end.

Every subcommand loads JSON documents, dispatches to the owning
module, and writes its report to stdout or --out.  Exit codes: 0 on
success, 1 when the computation refuses (budget, undecided structure,
unsupported scale), 2 on invalid input.  Refusals are printed as
machine-readable JSON, not tracebacks.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from codimlab.alternating import (matrix_unit_centrality,
                                  regev_polynomial,
                                  scalar_separating_polynomial,
                                  verify_alternating_nonidentity)
from codimlab.codim import (FLAVORS, cocharacters, empirical_exponent,
                            is_identity)
from codimlab.config import Refusal, RunConfig, parse_budget
from codimlab.documents import (DocumentError, dualize_bench,
                                dumps_document, dumps_poly,
                                load_document, load_instance,
                                load_poly)
from codimlab.exponent import compute_d
from codimlab.fixtures import FIXTURE_BUILDERS, build_fixture
from codimlab.free_polys import ParseError, format_poly, parse

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INVALID = 2


class InputError(ValueError):
    """Invalid input detected by the front end itself."""


# -- small helpers ----------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def load_bench(ref: str):
    """A document path, or the name of a bundled fixture."""
    if Path(ref).exists():
        return load_document(ref)
    if ref in FIXTURE_BUILDERS:
        return build_fixture(ref)
    raise InputError(
        f"{ref!r} is neither a readable file nor a bundled fixture "
        f"(known fixtures: {', '.join(sorted(FIXTURE_BUILDERS))})")


def _parse_range(text: str) -> tuple[int, int]:
    """"4" -> (4, 4); "2..6" -> (2, 6)."""
    lo, sep, hi = text.partition("..")
    try:
        n_min = int(lo)
        n_max = int(hi) if sep else n_min
    except ValueError:
        raise InputError(f"bad range {text!r}: use N or N..M") from None
    if n_min < 1 or n_max < n_min:
        raise InputError(f"bad range {text!r}: need 1 <= N <= M")
    return n_min, n_max


def _parse_sets(text: str):
    """"1-4,5-8" -> [(1,2,3,4), (5,6,7,8)]."""
    sets = []
    for block in text.split(","):
        lo, sep, hi = block.partition("-")
        try:
            a = int(lo)
            b = int(hi) if sep else a
        except ValueError:
            raise InputError(
                f"bad variable block {block!r}: use A or A-B") from None
        if a < 1 or b < a:
            raise InputError(f"bad variable block {block!r}")
        sets.append(tuple(range(a, b + 1)))
    return sets


def _run_config(args) -> RunConfig:
    kwargs = {}
    if getattr(args, "budget", None) is not None:
        kwargs["budget"] = parse_budget(args.budget, "--budget")
    if getattr(args, "verify", False):
        kwargs["verify"] = True
    return RunConfig(**kwargs)


def _default_flavor(bench) -> str:
    if bench.action is not None:
        return "g_action"
    if bench.grading is not None:
        return "graded"
    return "ordinary"


def _symmetry_word(bench) -> str:
    if bench.action is not None:
        return "action"
    if bench.grading is not None:
        return "grading"
    return "none"


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


# -- subcommands ------------------------------------------------------


def cmd_validate(args) -> int:
    bench = load_bench(args.algebra)
    field = bench.algebra.field
    info = {
        "valid": True,
        "name": bench.name,
        "dim": bench.algebra.dim,
        "field": ("rational" if field.order == 1
                  else f"cyclotomic({field.order})"),
        "group_order": bench.group.order,
        "symmetry": _symmetry_word(bench),
        "annotated": bench.annotation is not None,
    }
    if args.format == "json":
        _emit(_json_line(info), args.out)
    else:
        _emit("VALID: {name} (dim {dim}, field {field}, group order "
              "{group_order}, symmetry {symmetry})\n".format(**info),
              args.out)
    return EXIT_OK


def cmd_codim(args) -> int:
    bench = load_bench(args.algebra)
    n_min, n_max = _parse_range(args.n)
    config = _run_config(args)
    report = empirical_exponent(bench, args.flavor, n_max,
                                config, n_min=n_min)
    if args.format == "json":
        _emit(report.to_json() + "\n", args.out)
    elif args.format == "text":
        lines = [f"{report.name} [{report.flavor}]"]
        for n, c, root in report.points:
            lines.append(f"  n={n}  c_n={c}  root~{root.numerator}"
                         f"/{root.denominator}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(report.to_csv(), args.out)
    return EXIT_OK


def cmd_cochar(args) -> int:
    bench = load_bench(args.algebra)
    n_min, n_max = _parse_range(args.n)
    reports = cocharacters(bench, args.flavor, n_min, n_max,
                           _run_config(args))
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        _emit(json.dumps(payload if len(payload) > 1 else payload[0],
                         sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for r in reports:
            lines.append(f"{r.name} [{r.flavor}] n={r.n}: "
                         f"c_n={r.codim} colength={r.colength}")
            for lam, m in sorted(r.multiplicities.items(),
                                 reverse=True):
                shape = "+".join(str(p) for p in lam)
                lines.append(f"  ({shape}): {m}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_exponent(args) -> int:
    bench = load_bench(args.algebra)
    config = _run_config(args)
    report = compute_d(bench, config)
    if args.format == "json":
        _emit(report.to_json() + "\n", args.out)
    else:
        lines = [f"d({report.name}) = {report.d}"]
        if report.witness:
            lines.append(f"  witness sections {report.witness['sections']}"
                         f" with q = {report.witness['q']}")
        lines.append(f"  examined {report.tuples_examined} section tuples")
        for check in report.closed_form_checks:
            mark = "agrees" if check["agrees"] else "DISAGREES"
            lines.append(f"  closed form {check['rule']}: expected "
                         f"{check['expected']}, {mark}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_dualize(args) -> int:
    bench = load_bench(args.algebra)
    if bench.grading is None:
        raise InputError(f"{bench.name} carries no grading to dualize")
    _emit(dumps_document(dualize_bench(bench)), args.out)
    return EXIT_OK


def cmd_identity(args) -> int:
    bench = load_bench(args.algebra)
    flavor = args.flavor or _default_flavor(bench)
    poly = parse(args.expr, group=bench.group, field=bench.algebra.field)
    config = _run_config(args)
    report = is_identity(bench, flavor, poly, config)
    if args.format == "json":
        _emit(_json_line({"flavor": flavor, **report.to_dict()}),
              args.out)
    else:
        lines = [f"IDENTITY: {'true' if report.is_identity else 'false'}"]
        if report.witness:
            sub = report.witness["substitution"]
            val = report.witness["value"]
            lines.append("  witness: " + ", ".join(
                f"{v} = {b}" for v, b in sorted(sub.items())))
            lines.append("  value: " + " + ".join(
                f"({c}) {b}" for b, c in sorted(val.items())))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_regev(args) -> int:
    try:
        reg = regev_polynomial(args.q)
    except ValueError as e:
        if "unsupported" in str(e):
            raise Refusal("scale", str(e), q=args.q) from None
        raise InputError(str(e)) from None
    summary = (f"regev q={reg.q}: {reg.term_count} terms, "
               f"x vars {list(reg.x_vars)}, y vars {list(reg.y_vars)}")
    lines = [summary]
    if args.centrality:
        lines.append(matrix_unit_centrality(reg).summary())
    if args.out:
        _emit(dumps_poly(reg.poly, next(iter(reg.poly.values())).field,
                         sets=[reg.x_vars, reg.y_vars]), args.out)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _load_instance_checked(path: str):
    if not Path(path).exists():
        raise InputError(f"no such instance file: {path}")
    inst = load_instance(path)
    try:
        inst.validate()
    except ValueError as e:
        raise InputError(f"instance claims do not hold: {e}") from None
    return inst


def cmd_lemma_s(args) -> int:
    inst = _load_instance_checked(args.instance)
    try:
        sep = scalar_separating_polynomial(inst)
    except ValueError as e:
        if "Regev expansion" in str(e):
            raise Refusal("scale", str(e),
                          module_dim=inst.module_dim) from None
        raise InputError(str(e)) from None
    group = inst.action.group
    det = sep.determinant
    if args.format == "json":
        payload = {
            "t": sep.t, "q": sep.q, "trivial_centre": sep.trivial,
            "group_choices": [[group.names[g] for g in choice]
                              for choice in sep.group_choices],
            "gamma_steps": [[comp, str(g.as_rational())]
                            for comp, g in sep.gammas],
            "polynomial": format_poly(sep.polynomial, group),
            "determinant": (str(det.as_rational())
                            if det.field.degree == 1
                            else [str(c) for c in det.coeffs]),
        }
        _emit(_json_line(payload), args.out)
    else:
        lines = [f"centre dim t={sep.t}, eigencomponents q={sep.q}"]
        if sep.trivial:
            lines.append("trivial centre: the constant polynomial 1 "
                         "separates")
        else:
            for j, choice in enumerate(sep.group_choices):
                names = ", ".join(group.names[g] for g in choice)
                lines.append(f"  target {j}: conjugators ({names})")
            for comp, g in sep.gammas:
                lines.append(f"  gamma {g.as_rational()} fixes "
                             f"component {comp}")
        lines.append("polynomial: "
                     + format_poly(sep.polynomial, group))
        lines.append(f"value on the module: invertible, det = {det}")
        _emit("\n".join(lines) + "\n", args.out)
    if args.poly_out:
        sets = [tuple(range(1, sep.q + 1))] if not sep.trivial else []
        Path(args.poly_out).write_text(
            dumps_poly(sep.polynomial, inst.field, sets=sets),
            encoding="utf-8")
    return EXIT_OK


def cmd_verify_alt(args) -> int:
    if not Path(args.poly).exists():
        raise InputError(f"no such polynomial file: {args.poly}")
    poly, field, stored_sets = load_poly(args.poly)
    inst = _load_instance_checked(args.instance)
    if field != inst.field:
        raise InputError("polynomial and instance use different fields")
    sets = _parse_sets(args.sets) if args.sets else (stored_sets or [])
    report = verify_alternating_nonidentity(
        poly, inst, sets, exhaustive_limit=args.limit,
        seed=args.seed if args.seed is not None else 0,
        samples=args.samples)
    if args.format == "json":
        payload = {
            "alternating": report.alternating,
            "per_set": report.per_set,
            "is_identity": report.is_identity,
            "witness": list(report.witness_assignment)
            if report.witness_assignment is not None else None,
            "searched": report.searched,
            "mode": report.mode,
        }
        _emit(_json_line(payload), args.out)
    else:
        _emit(report.summary() + "\n", args.out)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in sorted(FIXTURE_BUILDERS):
        bench = build_fixture(name)
        text = dumps_document(bench)
        path = target / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        load_document(path)  # every emitted document must load clean
        lines.append(f"wrote {path}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- argument surface -------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every call: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="codimlab",
        description="Exact codimension-growth workbench for Lie "
                    "algebras with finite group actions or gradings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_arg(p):
        p.add_argument("--algebra", required=True,
                       help="document path or bundled fixture name")

    def common(p, formats=("text", "json"), default="text"):
        p.add_argument("--out", help="write the report here instead "
                       "of stdout")
        p.add_argument("--format", choices=formats, default=default)

    def config_args(p):
        p.add_argument("--budget",
                       help="scalar-multiplication cap, a whole number "
                       "such as 123456 or 1e9 (default from "
                       "CODIMLAB_BUDGET or built-in)")

    p = sub.add_parser("validate", help="load a document and "
                       "re-check every invariant")
    algebra_arg(p)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("codim", help="codimension table c_n with "
                       "display roots")
    algebra_arg(p)
    p.add_argument("--flavor", choices=FLAVORS, required=True)
    p.add_argument("--n", required=True, help="N or N..M")
    config_args(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check each weight component's rank "
                   "modulo independent primes")
    common(p, formats=("csv", "json", "text"), default="csv")
    p.set_defaults(func=cmd_codim)

    p = sub.add_parser("cochar", help="cocharacter multiplicities "
                       "at degree n")
    algebra_arg(p)
    p.add_argument("--flavor", choices=FLAVORS, required=True)
    p.add_argument("--n", required=True, help="N or N..M")
    config_args(p)
    common(p)
    p.set_defaults(func=cmd_cochar)

    p = sub.add_parser("exponent", help="chain-restricted annihilator "
                       "maximum d with witness")
    algebra_arg(p)
    config_args(p)
    common(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("dualize", help="swap a grading for the "
                       "character-group action")
    algebra_arg(p)
    p.add_argument("--out", help="write the dual document here")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("identity", help="decide whether an expression "
                       "is an identity of the algebra")
    algebra_arg(p)
    p.add_argument("--expr", required=True,
                   help="bracket expression, e.g. \"[x1 + x1^psi, x2]\"")
    p.add_argument("--flavor", choices=FLAVORS,
                   help="default: g_action if the document has an "
                   "action, graded for a grading, else ordinary")
    config_args(p)
    common(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("regev", help="double-alternating central "
                       "polynomial for q x q matrices")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--centrality", action="store_true",
                   help="decide on all matrix-unit substitutions")
    p.add_argument("--out", help="write the polynomial document here")
    p.set_defaults(func=cmd_regev)

    p = sub.add_parser("lemma-s", help="alternating polynomial acting "
                       "invertibly on an irreducible module")
    p.add_argument("--instance", required=True,
                   help="representation instance document")
    p.add_argument("--poly-out", dest="poly_out",
                   help="also write the polynomial as a document")
    common(p)
    p.set_defaults(func=cmd_lemma_s)

    p = sub.add_parser("verify-alt", help="check alternation and "
                       "search for a nonvanishing substitution")
    p.add_argument("--poly", required=True, help="polynomial document")
    p.add_argument("--instance", required=True,
                   help="representation instance document")
    p.add_argument("--sets", help="variable blocks, e.g. 1-4,5-8 "
                   "(default: the blocks stored in the polynomial)")
    p.add_argument("--limit", type=int, default=200000,
                   help="largest substitution count tried exhaustively")
    p.add_argument("--samples", type=int, default=2000,
                   help="random substitutions past the limit")
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_verify_alt)

    p = sub.add_parser("fixtures", help="write the bundled document "
                       "corpus")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Refusal as refusal:
        sys.stdout.write(refusal.to_json() + "\n")
        return EXIT_REFUSED
    except (DocumentError, ParseError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
