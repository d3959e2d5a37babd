"""Growth and value-distribution numerics for entire curves.

This is the floating-point layer of the package.  A curve C -> CP^n is given
by n+1 exponential polynomial components without common zeros; its growth is
measured by circle averages of log of the sup norm, its intersections with
hypersurface targets by integrated zero counts over divisors computed with
the winding machinery.  The harness at the bottom compares both sides of the
truncated main inequality on a radius grid, with truncation levels taken
from the certified bound chain, general position checked by resultants, and
algebraic nondegeneracy decided in every degree by one exact Jacobian rank
of the components over the lattice of their frequencies.

Floats enter only through circle means and through zero locations; divisor
multiplicities, truncation levels, admissibility and nondegeneracy stay
exact.  Circle integrands (log|f_i|, Jensen's log|num| - log|den|) and the
zero finder read one float evaluator, ExpPoly.scaled, so neither T(r) nor
N(r) overflows at any radius.  When every component is one term a z^m e^{cz},
each log|f_i| on |z| = r is a constant plus a sinusoid, and the mean of their
maximum is taken in closed form (`_max_sinusoid_mean`), with no quadrature and
with log|a| read from the exact coefficient.  Otherwise T on a radius grid is
one circle_averages pass over all its radii and r = 1, with one log|f_i| row
per component, and the quadrature splits each circle where the largest row
changes, so the kinks of log max_i |f_i| are integrated as breakpoints, not
sampled.  T is asked for by grid: `characteristic(f, radii)` is the one way,
and every command calls it once, so nothing is cached on the curve.  Jensen's
two circles are one pass too.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bounds import REPORT_DIGIT_BUDGET, compute_truncation_levels, report_repr
from .expfunc import ExpPoly, exponent_polys, lattice_rows, wronskian
from .fields import (GaussRat, InputError, NumericalFailure, Obstruction, RatFunc, ZPoly,
                     squared_modulus, zpoly_gcd)
from .hpoly import HPoly
from .linalg import RowReducer
from .quadrature import TWO_PI, QuadResult, circle_averages
from .resultant import HypersurfaceFamily, NotAdmissibleError, is_admissible
from .zeros import (ContourThroughZero, Divisor, exppoly_zeros, ratfunc_divisors,
                    zpoly_zeros)

__all__ = [
    "AdmissibilityError", "DegeneracyError", "EntireCurve", "as_curve",
    "characteristic", "counting_function",
    "log_modulus_average", "jensen_check", "wronskian",
    "DivisorBoundReport", "divisor_bound_check", "nondegeneracy_check",
    "normalize_target", "compose_target", "quotient_zeros",
    "defect_estimate", "NevanlinnaProfile",
    "TargetReport", "SmtReport", "smt_verify",
]


class DegeneracyError(Obstruction, ValueError):
    """A curve or composed target fails a required nondegeneracy condition."""


class AdmissibilityError(NotAdmissibleError):
    """The target family of the main inequality is not in general position."""


# ---------------------------------------------------------------------------
# curves


class EntireCurve:
    """Holomorphic map C -> CP^n given by n+1 exponential polynomial components.

    The tuple must be reduced (no common zeros).  When every coefficient is
    constant and every frequency an integer multiple of one gamma in Q(i),
    the components are Laurent polynomials in w = e^{gamma z}, which takes
    every nonzero value, so there are common zeros exactly when the gcd of
    the polynomials in w (`exponent_polys`) has a nonzero root; this
    rejects (e^z + 1 : e^{2z} - 1).  A tuple whose components all vanish at
    z = 0, each sum_c p_c(0) being 0, is rejected, as (e^z - 1 : z) is.  Any
    other tuple is rejected exactly when the coefficient polynomials p_c of
    all components share a factor, which decides polynomial tuples; other
    common zeros without a shared polynomial factor go undetected.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable):
        comps = tuple(ExpPoly._coerce(c) for c in components)
        if None in comps:
            raise TypeError(f"component {comps.index(None)} is not an exponential "
                            "polynomial, a polynomial or an exact constant")
        if len(comps) < 2:
            raise InputError(f"a projective curve needs at least two components, got {len(comps)}")
        if all(c.is_zero() for c in comps):
            raise InputError("all components vanish identically")
        object.__setattr__(self, "components", comps)
        self._check_reduced()

    def __setattr__(self, name, value):
        raise AttributeError("EntireCurve is immutable")

    def _check_reduced(self) -> None:
        if any(len(comp.terms) == 1 and next(iter(comp.terms.values())).degree == 0
               for comp in self.components):
            return              # a component c e^{gamma z} never vanishes
        if not any(sum(p.coeffs[0] for p in comp.terms.values()) for comp in self.components):
            raise DegeneracyError("components share a zero at z = 0: each component's value "
                                  "sum_c p_c(0) is exactly 0")
        in_w = (exponent_polys(self.components) or (None, None))[1]
        polys = in_w if in_w is not None else [p for comp in self.components
                                                 for p in comp.terms.values()]
        g = None
        for p in polys:
            g = p if g is None else zpoly_gcd(g, p)
            if g.degree == 0:       # a constant never vanishes
                return
        if in_w is not None:
            raise DegeneracyError("components share zeros: as polynomials in "
                                  "e^{gamma z} their gcd has a nonzero root")
        raise DegeneracyError(
            "components share a polynomial factor; divide it out first")

    @property
    def n(self) -> int:
        return len(self.components) - 1

    def is_polynomial(self) -> bool:
        return all(c.is_polynomial() for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, EntireCurve):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "EntireCurve(" + ", ".join(str(c) for c in self.components) + ")"


CurveLike = Union[EntireCurve, Sequence]


def as_curve(f: CurveLike) -> EntireCurve:
    return f if isinstance(f, EntireCurve) else EntireCurve(f)


# ---------------------------------------------------------------------------
# characteristic


def _log_abs_exact(a: GaussRat) -> float:
    """log|a| from the exact triple: |a|^2 = N/D with D = d^2 is scaled by a power of
    2 into [1/2, 2), where int true division rounds it correctly, so neither a huge
    nor a tiny a overflows and log|a| carries a relative error of a few ulps."""
    num, den, e = squared_modulus(a)
    q = num / (den << e) if e >= 0 else (num << -e) / den
    return (math.log(q) + e * math.log(2.0)) / 2


def _sinusoid_rows(components) -> Optional[list[tuple[float, int, complex]]]:
    """(log|a|, m, c) for each nonzero component a z^m e^{cz}, whose log-modulus on
    |z| = r is log|a| + m log r + Re(r c e^{i theta}); None when some component has
    two terms or a coefficient with two monomials.  A zero component never leads."""
    rows = []
    for comp in components:
        if len(comp.terms) > 1:
            return None
        for c, p in comp.terms.items():
            if any(p.coeffs[:-1]):
                return None
            rows.append((_log_abs_exact(p.leading()), p.degree, complex(c)))
    return rows


def _max_sinusoid_mean(rows: Sequence[tuple[float, int, complex]], r: float) -> QuadResult:
    """Mean over theta of max_j A_j + Re(C_j e^{i theta}), A_j = log|a_j| + m_j log r and
    C_j = r c_j, in closed form: the mean of log max_j |a_j z^m_j e^{c_j z}| on |z| = r.

    Rows j, k cross where A_j - A_k + |C_j - C_k| cos(theta + arg(C_j - C_k)) = 0, two
    arccos angles when |C_j - C_k| > |A_j - A_k|, else never.  Between consecutive
    crossings one row leads, read at the arc's midpoint; crossings where the leader does
    not change are dropped, and the leader of an arc [s, t] integrates to
    A (t - s) + Im(C e^{it}) - Im(C e^{is}), summed as A (t - s) + 2 sin((t - s)/2)
    Re(C e^{i(s+t)/2}), which does not cancel.  With one leader the mean is its A,
    exactly, since its sinusoid has mean 0.

    The error is a rounding bound.  Let eps = 2^-52, S = max_j |log|a_j|| + m_j |log r|
    + |C_j| and n the number of crossing angles.  Each A_j and C_j is within 4 eps S of
    its value (`_log_abs_exact`), so each row is too, and so is their max.  At a
    computed crossing the two rows differ by at most 20 eps S (the errors of A_j - A_k,
    of |C_j - C_k| relative to it, and of the arccos and its argument); their difference
    is monotone between it and the true crossing, which lie on one side of its
    extremum, so the wrong row on that piece, at most pi long, costs at most 10 eps S in
    the mean.  The arc sums lose at most 9 eps S more: an arc's two terms are each
    within 9 eps S times its length.  So |error| <= 16 eps S (1 + n), which is doubled
    for the ulps of the library's cos, sin and acos.  The result is a QuadResult with
    samples = 0."""
    log_r = math.log(r)
    data = [(log_a + m * log_r, r * c) for log_a, m, c in rows]
    scale = max(abs(log_a) + m * abs(log_r) + r * abs(c) for log_a, m, c in rows)
    cuts = []
    for (a_j, c_j), (a_k, c_k) in itertools.combinations(data, 2):
        gap, amp = a_j - a_k, abs(c_j - c_k)
        if amp > abs(gap):
            phase, half = cmath.phase(c_j - c_k), math.acos(-gap / amp)
            cuts += [(-phase - half) % TWO_PI, (-phase + half) % TWO_PI]
    error = 32 * math.ulp(1.0) * scale * (1 + len(cuts))

    def lead(theta: float) -> int:
        u = complex(math.cos(theta), math.sin(theta))
        return max(range(len(data)), key=lambda j: data[j][0] + (data[j][1] * u).real)

    cuts.sort()
    ends = cuts[1:] + [cuts[0] + TWO_PI] if cuts else []
    leads = [lead((a + b) / 2) for a, b in zip(cuts, ends)] or [lead(0.0)]
    # (angle, the row that leads from it on) where the leader changes
    turns = [(t, after) for t, before, after in zip(cuts, leads[-1:] + leads[:-1], leads)
             if before != after]
    if not turns:
        return QuadResult(data[leads[0]][0], error, 0, True)
    parts = []
    for (a, j), (b, _) in zip(turns, turns[1:] + [(turns[0][0] + TWO_PI, None)]):
        a_j, c_j = data[j]
        mid = (a + b) / 2
        parts += [a_j * (b - a),
                  2 * math.sin((b - a) / 2) * (c_j * complex(math.cos(mid), math.sin(mid))).real]
    return QuadResult(math.fsum(parts) / TWO_PI, error, 0, True)


def characteristic(f: CurveLike, radii: Sequence[float]) -> tuple[QuadResult, ...]:
    """T(r) at each radius r >= 1: the mean of log max_i |f_i| over |z| = r minus the
    same mean at r = 1, with an error bar.

    Nonnegative and nondecreasing in r >= 1 up to the error of the means;
    invariant under scaling all components by a common nonzero constant;
    exactly k*log r when the components are monomials with top degree k and
    the top monomial has unit coefficient modulus.  The means at r = 1 and at
    every radius come from one pass: in closed form, exact but for rounding, when
    every component is one term a z^m e^{cz}, else one circle_averages pass, with
    a warning for each mean that stops short of its target.  T(1) is exactly 0.0;
    elsewhere the error is that of the means at r and at 1, each at least the
    rounding floor 5e-16 (1 + |mean|) that the trapezoid rule states when its sums
    stop changing, since a stop on two equal sums states 0.
    """
    rs = tuple(float(r) for r in radii)
    if not all(1 <= r < math.inf for r in rs):
        raise InputError("the growth scale is normalized at r = 1; need finite radii r >= 1")
    curve = as_curve(f)
    grid = tuple(dict.fromkeys((1.0, *rs)))
    # log max |f_i| = max log |f_i|, one row per component
    sinusoids = _sinusoid_rows(curve.components)
    if sinusoids is None:
        rows = lambda zs: np.stack([comp.log_abs(zs) for comp in curve.components])
        means = dict(zip(grid, circle_averages(rows, grid)))
    else:
        means = {r: _max_sinusoid_mean(sinusoids, r) for r in grid}
    for r, res in means.items():
        if not res.converged:
            warnings.warn(f"circle average at r={r:g} stopped at error {res.error:.2e}",
                          stacklevel=2)
    lo = means[1.0]
    bar = lambda res: max(res.error, 5e-16 * (1 + abs(res.value)))
    return tuple(QuadResult(0.0, 0.0, lo.samples, lo.converged) if r == 1.0 else
                 QuadResult(means[r].value - lo.value, bar(means[r]) + bar(lo),
                            means[r].samples + lo.samples, means[r].converged and lo.converged)
                 for r in rs)


# ---------------------------------------------------------------------------
# divisors and counting


def counting_function(div: Divisor, r: float,
                      level: Optional[int] = None) -> float:
    """Integrated count N(r) of the divisor, normalized at radius 1.

    A point at |a| < 1 (the origin included) contributes mult * log r, a
    point at 1 <= |a| <= r contributes mult * log(r/|a|), points outside are
    ignored.  level caps each multiplicity (truncated counting); None means
    no cap.
    """
    if r < 1:
        raise InputError("counting is normalized at radius 1; need r >= 1")
    if r > div.r * (1 + 1e-12):
        raise InputError(f"divisor only known out to |z| <= {div.r:g}")
    if level is not None and level < 1:
        raise InputError("truncation level must be a positive integer")
    total = 0.0
    for a, m in div.points:
        if level is not None:
            m = min(m, level)
        aa = abs(a)
        if aa <= 1.0:
            total += m * math.log(r)
        elif aa <= r:
            total += m * math.log(r / aa)
    return total


# ---------------------------------------------------------------------------
# Jensen residuals


def _nudge_radius(r: float, pts) -> float:
    # sample circles must not pass through subtracted points: a coincident
    # sample evaluates 0/0
    rr = r
    for _ in range(8):
        if all(abs(abs(a) - rr) > 1e-9 * max(rr, 1.0) for a, _ in pts):
            break
        rr *= 1.0 + 4e-9
    return rr


def log_modulus_average(log_ev, radii: Sequence[float],
                        subtract=()) -> list[tuple[float, bool]]:
    """Mean of log|fn| over |z| = r with listed (point, mult) factors removed, as
    (value, converged) at each radius r, from one circle_averages pass.

    Each factor (z - a)^m is divided out of the integrand and its exact mean
    m * log max(r, |a|) added back, so zeros and poles near (or on) the
    circle cost nothing in accuracy.  log_ev maps a numpy array of points to
    log|fn| there, such as ExpPoly.log_abs.
    """
    pts = tuple(subtract)

    def g(zs: np.ndarray) -> np.ndarray:
        out = log_ev(zs)
        for a, m in pts:
            out -= m * np.log(np.abs(zs - a))
        return out

    return [(math.fsum(m * math.log(max(r, abs(a))) for a, m in pts) + res.value, res.converged)
            for r, res in zip(radii, circle_averages(g, radii))]


def jensen_check(phi, radii: Sequence[float]) -> list[float]:
    """Residual |N_zeros(r) - N_poles(r) - (mean log|phi| at r minus at 1)| at each r
    of radii, from one divisor search on the disk of radius 1.5 max(radii) + 1.

    Every circle mean subtracts every zero and pole of that search analytically,
    leaving smooth integrands, and all of them come from one circle_averages pass;
    the residual therefore measures quadrature error plus root placement error and
    should sit far below 1e-6 for honest inputs.
    """
    radii = tuple(radii)
    if not all(1 <= r < math.inf for r in radii):
        raise InputError("need finite radii r >= 1")
    big = 1.5 * max(radii, default=1.0) + 1.0
    if isinstance(phi, ZPoly):
        phi = RatFunc(phi)
    if isinstance(phi, RatFunc):
        zer, pol = ratfunc_divisors(phi, big)
        num, den = ExpPoly.poly(phi.num), ExpPoly.poly(phi.den)
        log_ev = lambda zs: num.log_abs(zs) - den.log_abs(zs)     # log|num/den|
    elif isinstance(phi, ExpPoly):
        zer, pol = exppoly_zeros(phi, big), None
        log_ev = phi.log_abs
    else:
        raise TypeError(f"no divisor support for {type(phi).__name__}")
    pts = list(zer.points)
    if pol is not None:
        pts += [(a, -m) for a, m in pol.points]

    def count(outer: float, inner: float) -> float:
        n = counting_function(zer, outer) - counting_function(zer, inner)
        if pol is not None:
            n -= counting_function(pol, outer) - counting_function(pol, inner)
        return n

    # the means are taken on circles moved off the zeros and poles, and counted there
    inner, outers = _nudge_radius(1.0, pts), [_nudge_radius(r, pts) for r in radii]
    *his, (lo, _) = log_modulus_average(log_ev, (*outers, inner), pts)
    return [abs(count(outer, inner) - (hi - lo)) for outer, (hi, _) in zip(outers, his)]


# ---------------------------------------------------------------------------
# wronskians and the divisor bound


@dataclass(frozen=True)
class DivisorBoundReport:
    """Per-site comparison of quotient order against the truncated sum."""

    holds: bool
    p0: int
    # (site, ord(product) - ord(wronskian), sum_i min(ord(f_i), p0))
    sites: tuple[tuple[complex, int, int], ...]
    boundary_nudged: bool


def divisor_bound_check(f: CurveLike, r: float) -> DivisorBoundReport:
    """Check ord_a(f_0...f_n / W) <= sum_i min(ord_a(f_i), n) inside |z| <= r.

    W is the consecutive-order wronskian of the components.  Polynomial
    components only: every order is exact.  The squarefree part of f_0...f_n
    is split by each of f_0, .., f_n and W into classes of roots that share
    every order: by the gcd chain g <- gcd(g, q), q <- q / gcd(g, q), the part
    of g left behind at step k has order exactly k in q.  Only the class
    polynomials are located (`zpoly_zeros`), so sites are listed class by class,
    a located point of multiplicity m (m class roots) m times.
    """
    curve = as_curve(f)
    if not curve.is_polynomial():
        raise ValueError("exact order comparison needs polynomial components")
    n = curve.n
    w = wronskian(curve.components)
    if w.is_zero():
        raise DegeneracyError("components are linearly dependent")
    polys = [c.polynomial_part() for c in (*curve.components, w)]
    prod = reduce(operator.mul, polys[:-1])
    classes = [(prod // zpoly_gcd(prod, prod.derivative()), ())]
    for q in polys:
        split = []
        for g, orders in classes:
            rest, k = q, 0
            while g.degree > 0:
                h = zpoly_gcd(g, rest)
                if h.degree < g.degree:
                    split.append((g // h, orders + (k,)))
                g, rest, k = h, rest // h, k + 1
        classes = split
    sites, nudged = [], False
    for g, (*comp, ord_w) in classes:
        div = zpoly_zeros(g, r)
        sites += [(a, sum(comp) - ord_w, sum(min(k, n) for k in comp))
                  for a, m in div.points for _ in range(m)]
        nudged = nudged or div.boundary_nudged
    return DivisorBoundReport(holds=all(quot <= cap for _, quot, cap in sites), p0=n,
                              sites=tuple(sites), boundary_nudged=nudged)


# ---------------------------------------------------------------------------
# nondegeneracy


def nondegeneracy_check(f: CurveLike, moving: bool = False) -> str:
    """Return "all" if no form of any degree vanishes along the curve, over C(z) when
    moving, else over C, or raise DegeneracyError.  By the Jacobian criterion (z, w_l
    of `lattice_rows` are independent) that holds exactly when the rows (f_j,
    theta_l f_j = w_l d f_j/dw_l [, d_z f_j over C]) have generic rank n + 1: one
    point proves it, and rank short on a grid with more points per variable than any
    (n+1)-minor's degree there proves every minor zero (combinatorial Nullstellensatz)."""
    curve = as_curve(f)
    n, (basis, rows) = curve.n, lattice_rows(curve.components)
    r = len(basis)
    dz = not moving and any(p.degree > 0 for row in rows for _, _, p in row)
    over = "C(z)" if moving else "C"
    if r + dz < n:
        raise DegeneracyError(f"the ratios f_k/f_0 have transcendence degree at "
                              f"most {r + dz} < n = {n} over {over}")
    top = [0] * (r + 1)             # degree bounds of each minor in z, w_1, .., w_r
    for row in rows:
        for k, col in enumerate(zip(*((p.degree, *e) for _, e, p in row))):
            top[k] += max(col)
    for z in range(1, top[0] + 2):
        at_z = [[(e, [(k, a) for k, a in enumerate((p(z), *(x * p(z) for x in m),
                                                     p.derivative()(z) if dz else 0)) if a])
                 for m, e, p in row] for row in rows]
        for w in itertools.product(*(range(1, k + 2) for k in top[1:])):
            red = RowReducer()
            for row in at_z:
                acc: dict = {}
                for e, vec in row:
                    mono = math.prod(map(pow, w, e))
                    for k, a in vec:
                        acc[k] = acc.get(k, 0) + a * mono
                red.add({k: a for k, a in acc.items() if a})
            if red.rank == n + 1:
                return "all"
    raise DegeneracyError(f"every Jacobian minor vanishes on a Nullstellensatz grid over {over}")


# ---------------------------------------------------------------------------
# targets along the curve


def normalize_target(qf: HPoly) -> HPoly:
    """Scale the form so one coefficient is exactly 1.

    Constant coefficients are preferred (the scale then commutes with every
    later evaluation); otherwise the lexicographically first term is used.
    Counting against the scaled form shifts nothing that grows like the
    curve, which is the normalization the moving-target inequality needs.
    """
    items = qf.terms_desc()
    if not items:
        raise InputError("zero form")
    pick = next((c for _, c in items if not (isinstance(c, RatFunc) and not c.is_constant())),
                items[0][1])
    return qf * (1 / pick)


def compose_target(qf: HPoly, f: CurveLike) -> tuple[ExpPoly, ZPoly]:
    """Pull the form back along the curve, clearing coefficient denominators.

    Returns (E, D) with Q(f) = E/D: E an exponential polynomial (each
    numerator multiplied by the other denominators), D the product of all
    coefficient denominators, constant when nothing moves.
    """
    curve = as_curve(f)
    if qf.nvars != curve.n + 1:
        raise InputError(f"form in {qf.nvars} variables against a curve in {curve.n + 1}")
    parts = [(exp, RatFunc.coerce(c)) for exp, c in qf.terms_desc()]
    d_total = reduce(operator.mul, (c.den for _, c in parts), ZPoly((1,)))
    total = ExpPoly.zero()
    for j, (exp, c) in enumerate(parts):
        cof = reduce(operator.mul, (o.den for k, (_, o) in enumerate(parts) if k != j), c.num)
        mono = reduce(operator.mul, (comp ** k for comp, k in zip(curve.components, exp) if k),
                      ExpPoly.const(1))
        total = total + ExpPoly.poly(cof) * mono
    return total, d_total


def quotient_zeros(e_part: ExpPoly, d_part: ZPoly, r: float) -> Divisor:
    """Zero divisor of E/D inside |z| <= r, exact but for zero locations.

    E = G E', G the gcd of E's coefficients, and G/gcd(G, D) = z^a G' with
    G'(0) != 0, whose zeros zpoly_zeros places as certified roots with exact
    multiplicities where the certificates hold; E''s zeros come from
    exppoly_zeros, as certified roots too when E' is a polynomial or has
    constant coefficients and one frequency lattice, as seeded zeros when E' has
    two terms, and from the quadtree otherwise.  At a root b != 0 of G' or
    of D' = D/gcd(G, D), E'(b) != 0 by Lindemann-Weierstrass: D' gives poles
    only.  At 0 the zero of E' gains a and loses min(ord_0 E', ord_0 D').
    """
    if e_part.is_zero():
        raise DegeneracyError("form vanishes identically along the curve")
    full = reduce(zpoly_gcd, e_part.terms.values())
    rest = ExpPoly({c: p // full for c, p in e_part.terms.items()})
    h = zpoly_gcd(full, d_part)
    g, d_part = full // h, d_part // h
    a = next(k for k, x in enumerate(g.coeffs) if x)
    div, exact = exppoly_zeros(rest, r), zpoly_zeros(ZPoly(g.coeffs[a:]), r)
    pts, cancel, taylor = list(div.points), 0, rest
    while not d_part.coeffs[cancel] and not sum(p.coeffs[0] for p in taylor.terms.values()):
        cancel, taylor = cancel + 1, taylor.derivative()
    if a and sum(p.coeffs[0] for p in rest.terms.values()):
        pts.append((0j, a))                     # E'(0) != 0
    elif a or cancel:
        z0, m = min(pts, key=lambda pt: abs(pt[0]), default=(0j, 0))
        if m < max(cancel, 1):
            raise ContourThroughZero(f"the zero at 0 was located with order {m}")
        k = pts.index((z0, m))
        pts[k:k + 1] = [(z0, m + a - cancel)] if m + a > cancel else []
    return Divisor(points=tuple(pts) + exact.points, r=r,
                   boundary_nudged=div.boundary_nudged or exact.boundary_nudged)


# ---------------------------------------------------------------------------
# defects and profiles


def defect_estimate(f: CurveLike, forms: Sequence[HPoly], r_max: float,
                    level: Optional[int] = None, grid_points: int = 12) -> list[float]:
    """Numeric stand-in for the defect of each form: min over the top half of a
    geometric radius grid of 1 - N(r)/(deg(Q) T(r)).

    The true defect is a lim inf as r -> infinity; the top-half minimum on a
    finite grid converges to it from whatever transient the small radii
    carry.  Can dip slightly below 0 or sit slightly under 1 from quadrature
    and grid effects.  Each form is normalized first (`normalize_target`), as
    smt_verify does, so a coefficient factor that every term shares is not
    counted as zeros.  T is computed once, on the top half, after the first
    form's zeros.
    """
    if not 2.0 <= r_max < math.inf:
        raise InputError(f"r_max must be a finite number >= 2, got {r_max}")
    if grid_points < 1:
        raise InputError(f"grid_points must be a positive integer, got {grid_points}")
    if level is not None and level < 1:
        raise InputError(f"level must be a positive integer, got {level}")
    curve = as_curve(f)
    radii = [float(r) for r in np.geomspace(max(2.0, math.sqrt(r_max)), r_max, grid_points)]
    top, ts, out = radii[len(radii) // 2:], None, []
    for qf in forms:
        div = quotient_zeros(*compose_target(normalize_target(qf), curve), r_max * (1 + 1e-9))
        ts = ts or characteristic(curve, top)
        out.append(_top_half_defect(qf.degree, top, [counting_function(div, r, level)
                                                     for r in top], ts))
    return out


def _top_half_defect(degree: int, top: Sequence[float], counts: Sequence[float],
                     ts: Sequence[QuadResult]) -> float:
    """min over top, the top half of a radius grid, of 1 - N(r)/(degree T(r)) where T(r)
    exceeds its error bar, counts holding N(r) and ts T(r) (`characteristic`) there; a T
    within its error bar counts as 0, and an InputError naming --rmax says that T vanishes
    on all of top."""
    vals = [1.0 - n / (degree * t.value) for n, t in zip(counts, ts) if t.value > t.error]
    if not vals:
        raise InputError(f"T(r) = 0 within its error bar on the top half of the radius "
                         f"grid (r <= {top[-1]:g}); raise --rmax")
    return min(vals)


@dataclass(frozen=True)
class NevanlinnaProfile:
    """Characteristic sampled on an increasing radius grid.  T is nondecreasing, so
    samples that fall by more than rounding are a numerical failure."""

    radii: tuple[float, ...]
    t_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.radii) != len(self.t_values):
            raise ValueError("grid and values differ in length")
        if any(r <= 1.0 for r in self.radii):
            raise ValueError("profile radii must exceed 1")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("profile radii must increase")
        slack = 1e-6 * (1.0 + max(abs(t) for t in self.t_values))
        if any(b < a - slack for a, b in zip(self.t_values, self.t_values[1:])):
            raise NumericalFailure("characteristic must be nondecreasing")


# ---------------------------------------------------------------------------
# the main inequality harness


@dataclass(frozen=True, repr=False)
class TargetReport:
    """One target's contribution to the inequality.  A moving target is slowly
    moving by the report's existence (see SmtReport), so no growth is measured."""

    form: HPoly                       # after normalization
    degree: int
    truncation: Optional[int]         # L_j; None when it was not built
    truncation_log10: float           # log10 L_j, from the bound chain
    truncation_binds: Optional[bool]  # a counted multiplicity exceeds L_j; None = undecided
    counts: tuple[float, ...]         # truncated N(r) on the grid
    defect: float

    __repr__ = report_repr


@dataclass(frozen=True)
class SmtReport:
    """Grid evaluation of (q - n - 1 - eps) T(r) <= sum_j N_j(r)/d_j.

    A report with moving targets exists only once the curve is proved
    nondegenerate over C(z), which rules out f_1/f_0 in C(z); so T_f(r)/log r
    -> infinity (Hayman, Meromorphic Functions, ch. 1), while a rational
    coefficient a has T(r, a) = O(log r).  Every target is therefore slowly
    moving, T(r, a) = o(T_f(r)), and no growth ratio is sampled.
    """

    n: int
    q: int
    eps: Fraction
    fixed: bool
    profile: NevanlinnaProfile
    targets: tuple[TargetReport, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    margins: tuple[float, ...]        # rhs - lhs, nonnegative when it holds
    r0: Optional[float]               # first grid radius with no later violation
    violating_measure: float          # total width of grid cells touching one
    defect_sum: float
    # "all": no form of any degree vanishes along the curve, proved over C
    # when fixed, over C(z) otherwise
    nondegenerate_to: str
    level_note: Optional[str]

    @property
    def holds_everywhere(self) -> bool:
        return all(m >= 0.0 for m in self.margins)

    @property
    def holds_eventually(self) -> bool:
        return self.r0 is not None


def smt_verify(f: CurveLike, targets, eps, radii: Sequence[float]) -> SmtReport:
    """Evaluate the truncated main inequality on a radius grid.

    Checks first that the family is in general position and the curve
    nondegenerate (over C(z) if a target moves), then measures both sides at
    every radius.  Forms are normalized so one coefficient is 1 first.

    Truncation levels come from the certified bound chain, built only up to
    REPORT_DIGIT_BUDGET digits; a longer level is reported by its log10.  A
    target whose counted multiplicities all lie at or below its level's exact
    floor (BoundReport.truncation_floors) is counted whole, which is its
    truncated count.  Otherwise the chain is rebuilt at the default budget to
    decide; a level too large even for that falls back to untruncated
    counting, which only raises the right side, and level_note records it.
    """
    curve = as_curve(f)
    fam = (targets if isinstance(targets, HypersurfaceFamily)
           else HypersurfaceFamily(curve.n, tuple(targets)))
    if fam.n != curve.n:
        raise InputError(f"family in dimension {fam.n} against a curve in dimension {curve.n}")
    rs = tuple(float(r) for r in radii)
    if len(rs) < 2 or not all(1.0 < r < math.inf for r in rs) or list(rs) != sorted(set(rs)):
        raise InputError("need a strictly increasing grid of finite radii > 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")

    adm = is_admissible(fam)
    if not adm.admissible:
        raise AdmissibilityError(
            f"family not in general position; failing subset {adm.failing_subset}")
    fixed = not fam.is_moving()
    nondeg = nondegeneracy_check(curve, moving=not fixed)

    n, q = curve.n, fam.q
    chain = compute_truncation_levels(n, q, eps, fam.degrees, fixed=fixed,
                                      digit_budget=REPORT_DIGIT_BUDGET)

    ts = characteristic(curve, rs)
    profile = NevanlinnaProfile(rs, tuple(t.value for t in ts))
    r_max = rs[-1]

    norms = [normalize_target(qf) for qf in fam.polys]
    divs = [quotient_zeros(*compose_target(norm, curve), r_max * (1 + 1e-9)) for norm in norms]
    tops = [max((m for a, m in div.points if abs(a) <= r_max), default=0) for div in divs]
    if not chain.materialized and any(map(operator.gt, tops, chain.truncation_floors)):
        # past its floor a multiplicity is decided only by the built level
        chain = compute_truncation_levels(n, q, eps, fam.degrees, fixed=fixed)
    levels = chain.truncations or (None,) * q
    binds = [top > floor if chain.materialized or top <= floor else None
             for top, floor in zip(tops, chain.truncation_floors)]
    level_note = ("certified truncation levels exceed the digit budget; "
                  "counting untruncated") if None in binds else None

    reports, half = [], len(rs) // 2
    for qf, norm, div, lev, lev_log10, bind in zip(fam.polys, norms, divs, levels,
                                                    chain.truncation_log10, binds):
        counts = tuple(counting_function(div, r, lev) for r in rs)
        defect = _top_half_defect(qf.degree, rs[half:], counts[half:], ts[half:])
        reports.append(TargetReport(form=norm, degree=qf.degree, truncation=lev,
                                    truncation_log10=lev_log10, truncation_binds=bind,
                                    counts=counts, defect=defect))

    factor = float(q - n - 1 - eps)
    lhs = tuple(factor * t for t in profile.t_values)
    rhs = tuple(math.fsum(rep.counts[i] / rep.degree for rep in reports)
                for i in range(len(rs)))
    margins = tuple(b - a for a, b in zip(lhs, rhs))

    r0 = next((r for i, r in enumerate(rs) if all(m >= 0.0 for m in margins[i:])), None)
    bad = sum((b - a for a, b, m, k in zip(rs, rs[1:], margins, margins[1:])
               if m < 0.0 or k < 0.0), 0.0)

    return SmtReport(n=n, q=q, eps=eps, fixed=fixed, profile=profile,
                     targets=tuple(reports), lhs=lhs, rhs=rhs,
                     margins=margins, r0=r0, violating_measure=bad,
                     defect_sum=math.fsum(rep.defect for rep in reports),
                     nondegenerate_to=nondeg, level_note=level_note)
