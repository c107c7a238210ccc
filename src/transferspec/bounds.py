"""Explicit eigenvalue decay bounds and the route crossover index.

Every bound is a function of the triple (W, r, d): the weight sup W over
the domain, the contraction ratio r of the enclosing concentric ball, and
the ambient dimension d. Two bound families are evaluated: a general
stretched-exponential bound with an n^(1/2) prefactor and a Hardy-route
variant whose prefactor is n^((d-1)/(2d)) at the price of a (1-r^2)^(-d/2)
constant. Their pointwise minimum is the combined bound, and crossover_N
locates the largest order at which the general form is still the sharper
of the two.

All functions here are pure and dimension-generic; nothing assumes d = 1
except bound_d1, which refuses other dimensions loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import WrongDimension


@dataclass(frozen=True)
class BoundProfile:
    """The bound inputs: weight sup W, enclosing ratio r, dimension d.

    W = 0 is admitted (identically zero weights give a zero operator whose
    bounds all vanish); r must lie strictly between 0 and 1.
    """

    W: float
    r: float
    d: int = 1

    def __post_init__(self):
        if not (self.W >= 0.0) or math.isinf(self.W):
            raise ValueError(f"W must be finite and >= 0, got {self.W}")
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"r must lie in (0, 1), got {self.r}")
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"d must be an integer >= 1, got {self.d}")


def t_sequence(d, n):
    """[t_1..t_n]: t_l = k exactly when l falls in the k-th degree block.

    The degree-k block has length comb(k+d-1, d-1), the number of monomials
    of total degree k in d variables; cumulative counts are comb(k+d, d).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    k = 0
    remaining = math.comb(k + d - 1, d - 1)
    for _ in range(n):
        while remaining == 0:
            k += 1
            remaining = math.comb(k + d - 1, d - 1)
        out.append(k)
        remaining -= 1
    return out


def _factorial_root(d):
    """(d!)^(1/d), exact integer factorial for small d."""
    if d <= 20:
        return math.factorial(d) ** (1.0 / d)
    return math.exp(math.lgamma(d + 1) / d)


def _stretched(profile, n):
    """The shared decay factor r^((d/(d+1)) (d!)^(1/d) n^(1/d))."""
    d = profile.d
    expo = (d / (d + 1.0)) * _factorial_root(d) * n ** (1.0 / d)
    return profile.r ** expo


def bound_d1(profile, n):
    """W n^(1/2) r^((n-1)/2): the sharper one-dimensional bound."""
    if profile.d != 1:
        raise WrongDimension(
            f"the d=1 bound is undefined for dimension {profile.d}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return profile.W * math.sqrt(n) * profile.r ** (0.5 * (n - 1))


def bound_general(profile, n):
    """(W/r^d) n^(1/2) r^((d/(d+1)) (d!)^(1/d) n^(1/d)), any dimension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (profile.W / profile.r ** profile.d) * math.sqrt(n) \
        * _stretched(profile, n)


def bound_hardy(profile, n):
    """Same decay factor with prefactor sqrt(d)/(1-r^2)^(d/2) n^((d-1)/(2d))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = profile.d
    const = profile.W * math.sqrt(d) / (
        profile.r ** d * (1.0 - profile.r ** 2) ** (d / 2.0))
    return const * n ** ((d - 1) / (2.0 * d)) * _stretched(profile, n)


def bound_combined(profile, n):
    """min(bound_general, bound_hardy); the two share the decay factor, so
    this equals min(n^(1/2), sqrt(d)(1-r^2)^(-d/2) n^((d-1)/(2d))) times
    the common (W/r^d) r^(...) part."""
    return min(bound_general(profile, n), bound_hardy(profile, n))


def _crossover_threshold(r, d):
    """Exact rational n-threshold for bound_general <= bound_hardy.

    The two bounds share the factor (W/r^d) r^(...); the comparison reduces
    to n^(1/(2d)) <= sqrt(d) (1-r^2)^(-d/2), i.e. n <= d^d / (1-r^2)^(d^2).
    Evaluated in exact rational arithmetic (the float r is a rational), so
    ties and huge thresholds come out exact.
    """
    rr = Fraction(r)
    return Fraction(d) ** d / (1 - rr * rr) ** (d * d)


def crossover_N(r, d):
    """Largest n with bound_general(n) <= bound_hardy(n); 0 if none.

    Scanning n upward compares quantities whose shared decay factor cancels;
    the cancelled comparison is evaluated exactly instead, which agrees with
    the scan wherever the scan is feasible and stays exact where it is not
    (the threshold grows like (1-r^2)^(-d^2) and can exceed 10^20).
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if d < 1:
        raise ValueError("d must be >= 1")
    return max(0, math.floor(_crossover_threshold(r, d)))


def crossover_report(r, d):
    """crossover_N plus, at d=1, the competing threshold conventions.

    Three comparisons all answer "up to which n is the general bound the
    sharper one" and give different thresholds at d=1:
      * general vs hardy (the definition used by crossover_N): n <= 1/(1-r^2)
      * the sharper d=1 bound vs hardy: n <= 1/(r(1-r^2))
      * requiring n^2 < 1/(1-r^2): n < (1-r^2)^(-1/2)
    The first is authoritative here; the others are reported so the
    disagreement is visible rather than silently resolved.
    """
    n_cross = crossover_N(r, d)
    out = {
        "r": float(r),
        "d": int(d),
        "crossover_N": int(n_cross),
        "rule": "largest n with bound_general(n) <= bound_hardy(n)",
    }
    if d == 1:
        rr = Fraction(r)
        one_minus = 1 - rr * rr
        d1_vs_hardy = 1 / (rr * one_minus)
        quadratic = math.sqrt(1.0 / float(one_minus))
        out["threshold_general_vs_hardy"] = float(1 / one_minus)
        out["threshold_d1_vs_hardy"] = float(d1_vs_hardy)
        out["threshold_d1_vs_hardy_floor"] = math.floor(d1_vs_hardy)
        out["threshold_quadratic"] = quadratic
        out["threshold_quadratic_floor"] = math.floor(quadratic)
        out["note"] = ("conventions disagree at d=1; crossover_N uses the "
                       "general-vs-hardy comparison")
    return out


# ---------------------------------------------------------------------------
# verification against a computed eigenvalue sequence


@dataclass(frozen=True)
class BoundRow:
    """One table row; abs_lambda and passed are None beyond the reliable
    prefix, bound_d1 is None for d >= 2."""

    n: int
    abs_lambda: float | None
    bound_d1: float | None
    bound_general: float
    bound_hardy: float
    bound_combined: float
    passed: bool | None


@dataclass(frozen=True)
class WeylRow:
    n: int
    product: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple
    weyl: tuple
    all_pass: bool
    reliable_count: int
    profile: BoundProfile


def bound_table(profile, n_max):
    """Bound rows 1..n_max with no eigenvalue data attached."""
    return _rows(profile, n_max, (), 0)


def _rows(profile, n_max, moduli, reliable):
    rows = []
    for n in range(1, n_max + 1):
        known = n <= reliable and n <= len(moduli)
        a = float(moduli[n - 1]) if known else None
        d1 = bound_d1(profile, n) if profile.d == 1 else None
        bg = bound_general(profile, n)
        bh = bound_hardy(profile, n)
        bc = min(bg, bh)
        rows.append(BoundRow(n, a, d1, bg, bh, bc,
                             (a <= bc) if known else None))
    return tuple(rows)


def _weyl_rhs(profile, n, t_sum):
    if profile.W == 0.0:
        return 0.0
    return math.exp(0.5 * n * math.log(n) + n * math.log(profile.W)
                    + t_sum * math.log(profile.r))


def verify_bounds(eigs, profile, weyl_orders=10):
    """Check every reliable |lambda_n| against bound_combined(n), and the
    cumulative products against n^(n/2) W^n r^(t_1+..+t_n).

    Rows beyond the reliable prefix carry the bound values with blank
    eigenvalue and pass fields; discretization junk never fails a bound.
    """
    moduli = list(eigs.moduli())
    reliable = min(eigs.reliable_count, len(moduli))
    rows = _rows(profile, len(moduli), moduli, reliable)

    weyl = []
    depth = min(len(moduli), weyl_orders)
    ts = t_sequence(profile.d, max(1, depth)) if depth else []
    prod = 1.0
    t_sum = 0
    for n in range(1, depth + 1):
        prod *= moduli[n - 1]
        t_sum += ts[n - 1]
        rhs = _weyl_rhs(profile, n, t_sum)
        weyl.append(WeylRow(n, prod, rhs, prod <= rhs))

    ok = all(r.passed for r in rows if r.passed is not None) \
        and all(w.passed for w in weyl)
    return VerificationReport(rows, tuple(weyl), ok, reliable, profile)


def bounds_csv_text(report_rows):
    """CSV text with columns n, abs_lambda, bound_d1, bound_general,
    bound_hardy, bound_combined, pass; None fields render empty."""
    from ._format import g17

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return g17(float(v))

    lines = ["n,abs_lambda,bound_d1,bound_general,bound_hardy,"
             "bound_combined,pass"]
    for r in report_rows:
        lines.append(",".join([
            str(r.n), cell(r.abs_lambda), cell(r.bound_d1),
            cell(r.bound_general), cell(r.bound_hardy),
            cell(r.bound_combined), cell(r.passed)]))
    return "\n".join(lines) + "\n"
