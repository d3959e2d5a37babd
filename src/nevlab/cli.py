"""Command-line front end.

Every subcommand reads exact inputs (JSON files or expression strings),
runs one pipeline stage, and emits a deterministic JSON report: keys are
sorted, exact scalars are rendered as strings, and writing with -o to a
regular or new file goes through a temp file and os.replace so a crash never
leaves a half-written report; the report keeps an existing file's mode, and a
new one gets the umask's.  -o follows symlinks and writes straight into
devices and FIFOs, which must not be replaced; a path that names standard
output itself (/dev/stdout, even when that is redirected to a regular file)
is written through standard output.  A report or plot that cannot be written
where -o or --plot points is malformed input (exit 2).

The exact commands (admissible, resultant, certificate, filtration, bounds,
schema) never load numpy: the handlers that need the numeric layer import it,
and numpy with it, in their bodies.

Each input is checked once.  Parsing checks expressions and the shape of the
JSON inputs; the library entry point a command calls checks the ranges (form
counts and degrees, indices, levels, eps, radii, derivative orders); the
handlers here check only --steps and --only, which no library function sees.

Exit codes, one per failure class of `fields`: 0 the computation ran (verdicts
like "not admissible" are data, not failures), 1 an `Obstruction` (degenerate
curve, inadmissible family where admissibility is required, violated margin), 2
an `InputError` (an --rmax too low for T(r) to grow and an unwritable output
path included), 3 a `NumericalFailure` (a contour through a zero, an uncertified
floor, a falling T) or a floating-point overflow.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
import tempfile
from fractions import Fraction
from typing import Optional

from . import __version__
from .bounds import a_lower_bound, compute_truncation_levels
from .fields import InputError, NumericalFailure
from .filtration import build_filtration
from .parsing import (CURVE_SCHEMA, ParseError, POLY_SCHEMA, SCALAR_GRAMMAR,
                      SYSTEM_SCHEMA, curve_from_json, family_from_json,
                      load_json_file, parse_ratfunc)
from .resultant import is_admissible, macaulay_resultant, power_certificate


def _loaded(module: str, *names: str) -> tuple:
    """The named attributes of a module that is already imported, else none:
    no object of a module that was never imported can reach the caller."""
    mod = sys.modules.get(module)
    return () if mod is None else tuple(getattr(mod, name) for name in names)


def _plain(obj):
    """Recursively convert report objects to JSON-ready builtins."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, _loaded("numpy", "floating", "integer")):
        return _plain(obj.item())
    return str(obj)         # exact scalars, forms, exponential polynomials


def _is_stdout(path: str) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):       # no such file, or stdout has no fd
        return False


def _emit(doc: dict, path: Optional[str]) -> None:
    _write(json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n", path)


def _write(text: str, path: Optional[str]) -> None:
    # replacing the file behind standard output would drop what the shell
    # had written to it before (>> appends)
    if path is None or path == "-" or _is_stdout(path):
        sys.stdout.write(text)
        return
    try:
        _write_file(text, path)
    except OSError as e:
        raise InputError(f"{path}: cannot write file: {e.strerror}") from e


def _write_file(text: str, path: str) -> None:
    # stat follows links, so a device or FIFO, or a link to one such as
    # /dev/stderr, is written in place; realpath would turn /proc/self/fd/2
    # into a "pipe:[N]" non-path
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    if os.path.exists(target):
        mode = stat.S_IMODE(os.stat(target).st_mode)
    else:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)          # mkstemp makes 0600
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational number: {text!r} ({e})")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise InputError(f"{what} must be comma-separated finite numbers, got {text!r}")


def _load_family(path: str):
    return family_from_json(load_json_file(path))


def _load_curve(path: str):
    return curve_from_json(load_json_file(path))


# ---------------------------------------------------------------------------
# subcommands


def cmd_resultant(args) -> int:
    fam = _load_family(args.system)
    res = macaulay_resultant(fam.polys)
    _emit({"tool": "resultant", "version": __version__,
           "n": fam.n, "degrees": fam.degrees,
           "resultant": res, "is_zero": not res}, args.output)
    return 0


def cmd_admissible(args) -> int:
    fam = _load_family(args.system)
    rep = is_admissible(fam)
    doc = {"tool": "admissible", "version": __version__,
           "n": fam.n, "q": fam.q, "moving": fam.is_moving()}
    doc.update(_plain(rep))
    _emit(doc, args.output)
    return 0


def cmd_certificate(args) -> int:
    fam = _load_family(args.system)
    cert = power_certificate(fam.polys, args.index)
    _emit({"tool": "certificate", "version": __version__,
           "n": fam.n, "index": cert.index, "power": cert.s,
           "resultant": cert.resultant,
           "cofactor_terms": [len(c.coeffs) for c in cert.cofactors],
           "rank_paths": cert.rank_paths, "value_paths": cert.value_paths,
           "verified": cert.verified}, args.output)
    return 0


def cmd_filtration(args) -> int:
    fam = _load_family(args.system)
    table = build_filtration(fam, _parse_ints(args.subset, "--subset"), args.level)
    _emit({"tool": "filtration", "version": __version__,
           "n": table.n, "d": table.d, "level": table.big_n,
           "subset": table.subset, "tuples": table.tuples,
           "multiplicities": table.multiplicities,
           "m_total": table.m_total, "block_count": table.k_count,
           "a_constant": table.a_constant, "rank_paths": table.rank_paths,
           "a_lower_bound": a_lower_bound(table.n, table.d, table.big_n)}, args.output)
    return 0


def cmd_bounds(args) -> int:
    eps = _parse_fraction(args.eps)
    degrees = _parse_ints(args.degrees, "--degrees")
    rep = compute_truncation_levels(args.n, len(degrees), eps, degrees,
                                    fixed=args.fixed,
                                    digit_budget=args.digit_budget)
    doc = {"tool": "bounds", "version": __version__}
    doc.update(_plain(rep))
    doc["materialized"] = rep.materialized
    _emit(doc, args.output)
    return 0


def cmd_jensen(args) -> int:
    from .nevanlinna import jensen_check
    phi = parse_ratfunc(args.phi)
    radii = _parse_floats(args.radii, "--radii")
    residuals = jensen_check(phi, radii)
    _emit({"tool": "jensen", "version": __version__, "phi": phi,
           "radii": radii, "residuals": residuals,
           "max_residual": max(residuals)}, args.output)
    return 0


def cmd_wronskian(args) -> int:
    from .expfunc import wronskian
    curve = _load_curve(args.curve)
    orders = _parse_ints(args.orders, "--orders") if args.orders else None
    w = wronskian(curve.components, orders=orders)
    _emit({"tool": "wronskian", "version": __version__,
           "components": list(curve.components),
           "orders": orders if orders else list(range(len(curve.components))),
           "wronskian": w, "is_zero": w.is_zero()}, args.output)
    return 0


def cmd_defects(args) -> int:
    from .nevanlinna import defect_estimate
    curve = _load_curve(args.curve)
    fam = _load_family(args.system)
    deltas = defect_estimate(curve, fam.polys, args.rmax, level=args.level,
                             grid_points=args.grid)
    rows = [{"form": qf, "degree": qf.degree, "defect": delta}
            for qf, delta in zip(fam.polys, deltas)]
    total = sum(r["defect"] for r in rows)
    _emit({"tool": "defects", "version": __version__,
           "rmax": args.rmax, "level": args.level,
           "targets": rows, "defect_sum": total,
           "defect_budget": curve.n + 1}, args.output)
    return 0


def _plot_svg(radii, lhs, rhs) -> str:
    w, h, pad = 640, 400, 48
    lo = min(min(lhs), min(rhs), 0.0)
    hi = max(max(lhs), max(rhs)) or 1.0
    sx = lambda r: pad + (w - 2 * pad) * (r - radii[0]) / (radii[-1] - radii[0])
    sy = lambda v: h - pad - (h - 2 * pad) * (v - lo) / (hi - lo)
    def poly(vals, color):
        pts = " ".join(f"{sx(r):.1f},{sy(v):.1f}" for r, v in zip(radii, vals))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                f'points="{pts}"/>')
    ticks = []
    for i in range(5):
        r = radii[0] + (radii[-1] - radii[0]) * i / 4
        v = lo + (hi - lo) * i / 4
        ticks.append(f'<text x="{sx(r):.0f}" y="{h - pad + 18}" '
                     f'text-anchor="middle" font-size="11">{r:.1f}</text>')
        ticks.append(f'<text x="{pad - 6}" y="{sy(v):.0f}" '
                     f'text-anchor="end" font-size="11">{v:.1f}</text>')
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">
<rect width="{w}" height="{h}" fill="white"/>
<rect x="{pad}" y="{pad}" width="{w - 2 * pad}" height="{h - 2 * pad}" fill="none" stroke="#999"/>
{poly(lhs, "#1f6fb2")}
{poly(rhs, "#c23b22")}
{''.join(ticks)}
<text x="{w - pad}" y="{pad - 10}" text-anchor="end" font-size="12" fill="#1f6fb2">truncated counting sum</text>
<text x="{w - pad}" y="{pad + 6}" text-anchor="end" font-size="12" fill="#c23b22">(q - n - 1 - eps) T</text>
</svg>
"""


def cmd_smt(args) -> int:
    import numpy as np

    from .nevanlinna import smt_verify
    curve = _load_curve(args.curve)
    fam = _load_family(args.system)
    eps = _parse_fraction(args.eps)
    if args.steps < 2:
        raise InputError(f"--steps must be at least 2, got {args.steps}")
    with np.errstate(invalid="ignore"):     # smt_verify refuses a non-finite grid
        radii = [float(r) for r in np.linspace(args.rmin, args.rmax, args.steps)]
    rep = smt_verify(curve, fam, eps, radii)
    doc = {"tool": "smt", "version": __version__,
           "holds_everywhere": rep.holds_everywhere,
           "holds_eventually": rep.holds_eventually}
    doc.update(_plain(rep))
    _emit(doc, args.output)
    if args.plot:
        _write(_plot_svg(rep.profile.radii, rep.lhs, rep.rhs), args.plot)
    return 0


def cmd_characteristic(args) -> int:
    from .nevanlinna import characteristic
    curve = _load_curve(args.curve)
    radii = _parse_floats(args.radii, "--radii")
    values = [t.value for t in characteristic(curve, radii)]
    _emit({"tool": "characteristic", "version": __version__,
           "components": list(curve.components),
           "radii": radii, "values": values}, args.output)
    return 0


def cmd_schema(args) -> int:
    if args.kind == "scalar":
        _write(SCALAR_GRAMMAR.rstrip() + "\n", args.output)
        return 0
    table = {"polynomial": POLY_SCHEMA, "system": SYSTEM_SCHEMA,
             "curve": CURVE_SCHEMA}
    _emit(table[args.kind], args.output)
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import CHECKS, run_all
    wanted = args.only.split(",") if args.only else None
    known = {name for name, _ in CHECKS}
    if wanted and not set(wanted) <= known:
        raise InputError(f"unknown check(s): {sorted(set(wanted) - known)}")
    results = run_all(names=wanted, echo=print)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


_OUTPUT = (("-o", "--output"),
           dict(metavar="FILE", help="write the JSON report here (atomically) instead of stdout"))

# subcommand -> (handler, help, its add_argument calls, _OUTPUT where it writes a report)
COMMANDS = {
    "resultant": (cmd_resultant, "Macaulay resultant of n+1 forms", (_OUTPUT,
        (("system",), dict(help="system JSON file")))),
    "admissible": (cmd_admissible, "general-position check for a family", (_OUTPUT,
        (("system",), {}))),
    "certificate": (cmd_certificate,
                    "express a power of one coordinate inside the ideal of the family", (_OUTPUT,
        (("system",), {}),
        (("--index",), dict(type=int, required=True, help="coordinate index to certify")))),
    "filtration": (cmd_filtration, "graded filtration table at one level", (_OUTPUT,
        (("system",), {}),
        (("--subset",), dict(required=True, help="n comma-separated form indices")),
        (("--level",), dict(type=int, required=True, help="graded level N")))),
    "bounds": (cmd_bounds, "truncation levels for given (n, q, eps, degrees)", (_OUTPUT,
        (("--n",), dict(type=int, required=True, help="projective dimension")),
        (("--eps",), dict(required=True, help="error budget, e.g. 1/2")),
        (("--degrees",), dict(required=True, help="comma-separated target degrees")),
        (("--fixed",), dict(action="store_true",
                            help="constant-coefficient chain (much smaller levels)")),
        (("--digit-budget",), dict(type=int, default=None,
                                   help="max decimal digits before levels are left symbolic")))),
    "jensen": (cmd_jensen, "zero/pole counting vs boundary averages", (_OUTPUT,
        (("--phi",), dict(required=True, help="rational expression in z, e.g. (z-2)/(z+3)")),
        (("--radii",), dict(default="2,5,10")))),
    "wronskian": (cmd_wronskian, "Wronskian determinant of curve components", (_OUTPUT,
        (("curve",), {}),
        (("--orders",), dict(default=None, help="derivative orders, e.g. 0,1,2")))),
    "characteristic": (cmd_characteristic, "growth function of a curve", (_OUTPUT,
        (("curve",), {}),
        (("--radii",), dict(default="2,5,10,20")))),
    "defects": (cmd_defects, "deficiency estimates for each target form", (_OUTPUT,
        (("curve",), {}),
        (("system",), {}),
        (("--rmax",), dict(type=float, default=50.0)),
        (("--level",), dict(type=int, default=None, help="truncation level for counting")),
        (("--grid",), dict(type=int, default=12)))),
    "smt": (cmd_smt, "verify the main inequality along a radius grid", (_OUTPUT,
        (("curve",), {}),
        (("system",), {}),
        (("--eps",), dict(default="1/2")),
        (("--rmin",), dict(type=float, default=10.0)),
        (("--rmax",), dict(type=float, default=50.0)),
        (("--steps",), dict(type=int, default=20)),
        (("--plot",), dict(metavar="FILE.svg", default=None,
                           help="write an SVG of both sides of the inequality")))),
    "schema": (cmd_schema, "print input formats", (_OUTPUT,
        (("kind",), dict(choices=("scalar", "polynomial", "system", "curve"))),)),
    "selftest": (cmd_selftest, "run the acceptance battery", (
        (("--only",), dict(default=None, help="comma-separated check names")),)),
}


def _declare(sp: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    fn, _, arguments = COMMANDS[name]
    sp.set_defaults(command=name, func=fn)
    for flags, options in arguments:
        sp.add_argument(*flags, **options)
    return sp


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nevlab",
        description="exact resultants, filtrations, truncation bounds, and "
                    "Nevanlinna functionals for entire curves")
    p.add_argument("--version", action="version", version=f"nevlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, _) in COMMANDS.items():
        _declare(sub.add_parser(name, help=help_), name)
    return p


def _parse_args(argv) -> argparse.Namespace:
    """Parse a command line exactly as ``build_parser`` does.

    A line that names a subcommand is parsed by a parser of that subcommand
    alone, built as ``build_parser`` builds it, so its help and errors read
    the same; declaring all twelve was half the time of a small command.
    Arguments it does not know go to the full parser, whose error names them.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        sp = _declare(argparse.ArgumentParser(prog=f"nevlab {argv[0]}"), argv[0])
        args, extra = sp.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    # bounds prints exact truncation levels of up to 50,000 digits, and smt builds one
    # past the default limit of 4,300 when a multiplicity passes the level's floor: the
    # int-to-str limit is raised for the command only (0, no limit, and 3.10 aside)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(max(limit, 2_000_000))
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"nevlab: input error:\n{e.caret()}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"nevlab: input error: {e}", file=sys.stderr)
        return 2
    except (NumericalFailure, OverflowError) as e:
        print(f"nevlab: numerical failure: {e}", file=sys.stderr)
        return 3
    except ArithmeticError as e:          # every Obstruction, and what no class claims
        print(f"nevlab: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
