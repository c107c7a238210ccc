"""Holomorphic map-weight systems on ball domains.

A map-weight system is an indexed family of analytic branch maps T_i
sending a ball D strictly inside itself, together with scalar analytic
weights w_i. The associated transfer operator acts on holomorphic
functions by (L f)(z) = sum_i w_i(z) * f(T_i(z)).

This module provides the domain/map/system types, builders for the
parametric families (Moebius, affine, and the continued-fraction system
with branches 1/(i+z) and weights 1/(i+z)^2), boundary-grid validation of
the strict-containment geometry, and JSON descriptor parsing.

Countably infinite families are represented by truncation at an index
i_max plus analytic tail data supplied by the family constructor: a bound
on the summed sup norms of the dropped weights, a bound on how far the
dropped branch images reach from the ball center, and (where the family
admits closed-form tail sums) a callable evaluating the dropped branches'
contribution to weighted power sums exactly. Generic user systems must be
finite; summability of a black-box infinite family is not checkable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._dual import Dual, derivative_scalar, jacobian
from ._zeta import hzeta_rows, normal_orders, trigamma, unshifted_floor
from .errors import (
    DegenerateMap,
    DescriptorError,
    DimensionUnsupported,
    InadmissibleDomain,
    InvalidDomain,
)

_GRID_CAP = 1 << 14
_REFINE_TOL = 1e-10
_BLOCK_ENTRIES = 1 << 14  # entries of one column block of the power sums


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class BallDomain:
    """Open ball in C^dim: |z - center| < radius.

    For dim == 1 the center is a complex scalar; for dim >= 2 it is a tuple
    of complex coordinates.
    """

    center: object
    radius: float
    dim: int = 1

    def boundary_points(self, m):
        """m equispaced points on the boundary circle (dim 1 only)."""
        if self.dim != 1:
            raise DimensionUnsupported("boundary sampling needs dim 1")
        theta = 2.0 * np.pi * np.arange(m) / m
        return self.center + self.radius * np.exp(1j * theta)

    def contains(self, z, slack=0.0):
        """Whether a point (or each point of an array) lies in the closed
        ball inflated by slack."""
        if self.dim == 1:
            return np.abs(np.asarray(z) - self.center) <= self.radius + slack
        diff = np.asarray(z, dtype=complex) - np.asarray(self.center, dtype=complex)
        return np.linalg.norm(diff) <= self.radius + slack


def make_ball(center, radius, dim=1):
    """Build a BallDomain, normalizing the center representation."""
    if (isinstance(dim, bool) or not isinstance(dim, (int, np.integer))
            or dim < 1):
        raise InvalidDomain(f"dim must be a positive integer, got {dim!r}")
    dim = int(dim)
    if isinstance(radius, bool) or not (float(radius) > 0.0):
        raise InvalidDomain(f"radius must be positive, got {radius!r}")
    if dim == 1:
        if isinstance(center, (list, tuple, np.ndarray)):
            seq = list(np.asarray(center).ravel())
            if len(seq) != 1:
                raise InvalidDomain("center must have exactly 1 coordinate for dim 1")
            center = seq[0]
        center = complex(center)
    else:
        seq = [complex(c) for c in center]
        if len(seq) != dim:
            raise InvalidDomain(
                f"center has {len(seq)} coordinates but dim is {dim}")
        center = tuple(seq)
    return BallDomain(center, float(radius), dim)


# ---------------------------------------------------------------------------
# analytic maps


class AnalyticMap:
    """An analytic map together with its derivative rule.

    fn maps C^dim -> C^dim (or -> C for scalar weights). When no closed-form
    derivative is supplied, forward-mode dual numbers differentiate fn, which
    works for any fn built from field arithmetic and integer powers.

    Scalar evaluation accepts numpy arrays wherever fn broadcasts; a
    per-element fallback covers fn that does not. For dim >= 2 a (dim, m)
    array holds m points, one per column, and gives m images ((dim, m), or
    (m,) for a weight) and a (dim, dim, m) stack of Jacobians; a fn that
    does not broadcast so is evaluated one point at a time.
    """

    def __init__(self, fn, deriv=None, dim=1, name=""):
        self._fn = fn
        self._deriv = deriv
        self.dim = int(dim)
        self.name = name

    def __repr__(self):
        return f"AnalyticMap({self.name or '<anonymous>'}, dim={self.dim})"

    def __call__(self, z):
        if not isinstance(z, np.ndarray):
            return self._fn(z)
        if self.dim == 1:
            return self._eval_array(self._fn, z)
        if z.ndim == 2:
            m = z.shape[1]
            return self._eval_points(self._fn, z, ((self.dim, m), (m,)))
        return self._fn(z)

    def derivative(self, z):
        """Derivative at z: a complex scalar for dim 1, else a dim x dim
        matrix, or a (dim, dim, m) stack at the m columns of a (dim, m)
        array."""
        if self.dim != 1:
            if isinstance(z, np.ndarray) and z.ndim == 2:
                return self._jacobians(z)
            if self._deriv is not None:
                return np.asarray(self._deriv(z), dtype=complex)
            return jacobian(self._fn, z, self.dim)
        if self._deriv is not None:
            if isinstance(z, np.ndarray):
                return self._eval_array(self._deriv, z)
            return self._deriv(z)
        if isinstance(z, np.ndarray):
            try:
                out = self._fn(Dual(z, np.ones_like(z)))
                if isinstance(out, Dual) and np.shape(out.val) == z.shape:
                    return np.asarray(out.eps, dtype=complex) + np.zeros_like(z)
            except (TypeError, ValueError):
                pass
            flat = z.ravel()
            vals = np.array([derivative_scalar(self._fn, zz) for zz in flat],
                            dtype=complex)
            return vals.reshape(z.shape)
        return derivative_scalar(self._fn, z)

    def _jacobians(self, z):
        """The (dim, dim, m) Jacobians at the m columns of z. A closed-form
        derivative that returns one matrix is taken as constant."""
        d, m = z.shape
        if self._deriv is not None:
            jac = self._eval_points(self._deriv, z, ((d, d), (d, d, m)))
        else:
            jac = self._eval_points(lambda pts: jacobian(self._fn, pts, d), z,
                                    ((d, d, m),))
        return np.broadcast_to(jac[..., None] if jac.ndim == 2 else jac,
                               (d, d, m))

    @staticmethod
    def _eval_array(fn, z):
        try:
            out = fn(z)
            arr = np.asarray(out, dtype=complex)
            if arr.shape == z.shape:
                return arr
            if arr.shape == ():  # constant map evaluated on an array
                return np.full(z.shape, complex(arr), dtype=complex)
        except (TypeError, ValueError):
            pass
        flat = z.ravel()
        vals = np.array([fn(zz) for zz in flat], dtype=complex)
        return vals.reshape(z.shape)

    def _eval_points(self, fn, z, shapes):
        """fn on the m columns of the (dim, m) array z at once when its result
        has one of shapes, else one column at a time (points last). m = dim
        also goes column by column: there a map that adds a length-dim
        vector broadcasts without error, but along the wrong axis."""
        m = z.shape[1]
        if m != self.dim:
            try:
                out = np.asarray(fn(z), dtype=complex)
                if out.shape in shapes:
                    return out
            except (TypeError, ValueError):
                pass
        vals = np.array([fn(z[:, j]) for j in range(m)], dtype=complex)
        return np.moveaxis(vals, 0, -1)


def make_moebius(a, b, c, e):
    """z -> (a z + b)/(c z + e) with the exact derivative (ae - bc)/(cz + e)^2."""
    a, b, c, e = complex(a), complex(b), complex(c), complex(e)
    det = a * e - b * c
    if det == 0:
        raise DegenerateMap(f"ae - bc = 0 for (a,b,c,e)=({a},{b},{c},{e})")

    def fn(z, a=a, b=b, c=c, e=e):
        return (a * z + b) / (c * z + e)

    def deriv(z, det=det, c=c, e=e):
        q = c * z + e
        return det / (q * q)

    m = AnalyticMap(fn, deriv, dim=1, name=f"moebius({a},{b},{c},{e})")
    m.moebius = (a, b, c, e)
    return m


def make_affine(a, b):
    """z -> a z + b with constant derivative a (a Moebius map with c=0, e=1)."""
    return make_moebius(a, b, 0.0, 1.0)


def make_const(value):
    """Constant scalar map, used for constant weights.

    Like the +-T' weights it carries form = (factor, uses_derivative), here
    (value, False); the letter gathers read the form instead of calling the
    map. A weight without a form is generic.
    """
    value = complex(value)
    m = AnalyticMap(lambda z: value + 0.0 * z, lambda z: 0.0 * z,
                    dim=1, name=f"const({value})")
    m.form = (value, False)
    return m


def _derivative_weight(branch, kind):
    """The weight T' ("derivative") or -T' ("neg_derivative") of a branch,
    with form (+-1.0, True): the factor times the branch derivative.

    Values come from the branch's closed-form derivative; the weight's own
    derivative, which the library never needs, is taken by dual numbers
    through that closed form.
    """
    if kind == "derivative":
        w = AnalyticMap(branch.derivative, dim=1, name=f"{branch.name}'")
    else:
        w = AnalyticMap(lambda z, b=branch: -b.derivative(z), dim=1,
                        name=f"-{branch.name}'")
    w.form = (1.0 if kind == "derivative" else -1.0, True)
    return w


def _lift_weight(w, dim):
    """A weight for a dim >= 2 system must consume a coordinate vector and
    return a scalar. Constant weights built for dim 1 are lifted; any other
    dimension mismatch is the caller's bug and is rejected."""
    if getattr(w, "dim", None) == dim:
        return w
    form = getattr(w, "form", None)
    if form is not None and not form[1]:
        lifted = AnalyticMap(lambda z, v=form[0]: v,
                             lambda z: 0.0 * np.asarray(z), dim=dim,
                             name=w.name)
        lifted.form = form
        return lifted
    raise InvalidDomain(
        f"weight {w!r} has dim {getattr(w, 'dim', '?')} but the system "
        f"domain has dim {dim}")


# ---------------------------------------------------------------------------
# alphabets and the system aggregate


@dataclass(frozen=True)
class Finite:
    """Alphabet {1, ..., count}."""

    count: int


@dataclass(frozen=True, eq=False)
class CountableTruncated:
    """Alphabet {1, 2, ...} truncated at i_max, with analytic tail data.

    weight_tail_bound bounds sum_{i > i_max} sup_D |w_i|.
    image_tail_sup bounds sup_{i > i_max} sup_D |T_i(z) - center(D)|.
    power_tail, when present, is a callable (z_points, count, center) ->
    array of shape (count, len(z_points)) whose row n holds
    sum_{i > i_max} w_i(z) * (T_i(z) - center)^n evaluated in closed form;
    it lets the matrix discretization represent the full operator instead
    of the truncation.
    """

    i_max: int
    weight_tail_bound: float
    image_tail_sup: float
    power_tail: object = None
    note: str = ""


class MapWeightSystem:
    """Branches, weights, domain, and alphabet, plus vectorized gather tables.

    Instances are immutable by convention. Letters are 1-based; letter l
    uses branches[l-1] and weights[l-1]. For CountableTruncated alphabets
    the stored lists cover letters 1..i_max and the tail is represented by
    the alphabet's analytic data.
    """

    def __init__(self, branches, weights, domain, alphabet,
                 label="custom", descriptor=None):
        branches = tuple(branches)
        weights = tuple(weights)
        if len(branches) == 0:
            raise InvalidDomain("a system needs at least one branch")
        if len(branches) != len(weights):
            raise InvalidDomain(
                f"{len(branches)} branches but {len(weights)} weights")
        count = alphabet.count if isinstance(alphabet, Finite) else alphabet.i_max
        if count != len(branches):
            raise InvalidDomain(
                f"alphabet describes {count} letters but {len(branches)} "
                "branches were supplied")
        if domain.dim >= 2:
            weights = tuple(_lift_weight(w, domain.dim) for w in weights)
        self.branches = branches
        self.weights = weights
        self.domain = domain
        self.alphabet = alphabet
        self.label = label
        self.descriptor = descriptor
        self._build_tables()

    # -- basic accessors ----------------------------------------------------

    @property
    def dim(self):
        return self.domain.dim

    @property
    def n_letters(self):
        """Number of enumerable letters (i_max for truncated alphabets)."""
        return len(self.branches)

    @property
    def system_id(self):
        """Short stable identifier derived from the descriptor (or label)."""
        if self.descriptor is not None:
            blob = json.dumps(self.descriptor, sort_keys=True,
                              separators=(",", ":"))
            tag = self.descriptor.get("family", "custom")
        else:
            blob = repr((self.label, self.n_letters, self.domain))
            tag = self.label
        digest = hashlib.sha1(blob.encode()).hexdigest()[:10]
        return f"{tag}-{digest}"

    def __repr__(self):
        return (f"MapWeightSystem({self.label}, letters={self.n_letters}, "
                f"dim={self.dim}, alphabet={type(self.alphabet).__name__})")

    # -- vectorized letter gathers -------------------------------------------

    def _build_tables(self):
        self._mob = None
        if self.dim == 1 and all(hasattr(b, "moebius") for b in self.branches):
            quad = np.array([b.moebius for b in self.branches], dtype=complex)
            self._mob = (quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3])
        forms = [getattr(w, "form", None) for w in self.weights]
        # per letter +-1 or the constant, and the letters whose weight is
        # that factor times T'; None when some weight is generic
        self._wfactors = None if None in forms else (
            np.array([f[0] for f in forms], dtype=complex),
            np.array([f[1] for f in forms]))

    def apply_letters(self, letters, z, groups=None):
        """T_{letters}(z) elementwise; letters int array, z complex array
        ((dim, count) for dim >= 2). groups, the column's letter groups
        from _letter_groups, spares regrouping a column that is reused."""
        if self._mob is not None:
            idx = letters - 1
            a, b, c, e = self._mob
            return (a[idx] * z + b[idx]) / (c[idx] * z + e[idx])
        out = self._gather(lambda br, pts: br(pts), letters, z,
                           groups=groups)
        return out if self.dim == 1 else out.T

    def derivative_letters(self, letters, z, groups=None):
        """T'_{letters}(z) elementwise; for dim >= 2 a (count, dim, dim)
        stack of Jacobians."""
        if self._mob is not None:
            idx = letters - 1
            a, b, c, e = self._mob
            q = c[idx] * z + e[idx]
            return (a[idx] * e[idx] - b[idx] * c[idx]) / (q * q)
        return self._gather(lambda br, pts: br.derivative(pts), letters, z,
                            groups=groups)

    def weight_letters(self, letters, z, deriv=None, groups=None):
        """w_{letters}(z) elementwise: the constant, the factor times T',
        or, when some weight of the system is generic, each weight map
        called on its points. deriv, when given, holds T'_{letters}(z) and
        saves recomputing it for factor * T' weights (dim 1)."""
        if self._wfactors is None:
            return self._gather(lambda w, pts: w(pts), letters, z,
                                self.weights, groups)
        factor, uses_deriv = self._wfactors
        idx = letters - 1
        out = factor[idx]
        dmask = uses_deriv[idx]
        if dmask.any():
            d = (self.derivative_letters(letters[dmask], z[dmask])
                 if deriv is None else deriv[dmask])
            out[dmask] = factor[idx[dmask]] * d
        return out

    def _gather(self, call, letters, z, table=None, groups=None):
        """call(table[l - 1], points) for each letter l of the column letters
        on the points (last axis of z) that use it, assembled point by point
        along the first axis of the result."""
        table = self.branches if table is None else table
        z = np.asarray(z, dtype=complex)
        out = None
        if groups is None:
            groups = _letter_groups(letters)
        for letter, pos in groups:
            vals = call(table[letter - 1], z.take(pos, axis=-1))
            if out is None:
                out = np.empty(letters.shape + vals.shape[:-1], dtype=complex)
            out[pos] = vals if vals.ndim == 1 else np.moveaxis(vals, -1, 0)
        return out


def _letter_groups(letters):
    """(letter, positions) for each letter that occurs in the int column
    letters, in letter order; the positions ascend."""
    return [(letter, np.flatnonzero(letters == letter))
            for letter in np.flatnonzero(np.bincount(letters)).tolist()]


def make_system(branches, weights, domain, label="custom", descriptor=None):
    """Finite system from explicit branch and weight lists."""
    branches = tuple(branches)
    return MapWeightSystem(branches, tuple(weights), domain,
                           Finite(len(branches)), label=label,
                           descriptor=descriptor)


# ---------------------------------------------------------------------------
# the continued-fraction (Gauss) family


def _gauss_weight_tail_bound(i_max, domain):
    """Upper bound for sum_{i > i_max} sup_D |i + z|^(-2).

    The sup of |i+z|^(-2) over the closed ball is (|i + c| - rho)^(-2).
    For real centers this sums to an exact trigamma value; otherwise a
    partial sum plus an integral majorant is used.
    """
    c, rho = domain.center, domain.radius
    if c.imag == 0.0:
        start = i_max + 1 + c.real - rho
        if start > 0:
            return float(trigamma(start).real)
    block = np.arange(i_max + 1, i_max + 4001)
    vals = (np.abs(block + c) - rho) ** -2.0
    remainder = 1.0 / (i_max + 4000 - abs(c) - rho)
    return float(vals.sum() + remainder)


def _gauss_image_tail_sup(i_max, domain):
    """Upper bound for sup_{i > i_max} sup_D |1/(i+z) - center|.

    Branch i maps the ball onto a disc computable in closed form; a probe
    block of branches is evaluated exactly and the remaining branches are
    covered by |center| + max modulus of their image discs, which decreases
    in i.
    """
    c, rho = domain.center, domain.radius
    block = np.arange(i_max + 1, i_max + 4001)
    q = block + c  # centers of the pre-image discs |w - q| = rho under w = i+z
    denom = np.abs(q) ** 2 - rho * rho
    img_center = np.conj(q) / denom
    img_radius = rho / np.abs(denom)
    probe = float(np.max(np.abs(img_center - c) + img_radius))
    far = abs(c) + 1.0 / (i_max + 4001 - abs(c) - rho)
    return max(probe, far)


def _power_sums(w, base, out, base_first=False):
    """out[n] += sum_i w[i] * base[i]**n for every row n of out.

    w and base are (letters, grid) arrays. The grid is walked in column
    blocks of about _BLOCK_ENTRIES entries, so the running power and the
    product stay in cache and no step allocates a full-size temporary.
    Each column gets the same operations in the same order as whole-array
    code, with the power step p * base, or base * p when base_first is set:
    numpy's complex multiply rounds the two orders differently in the last
    bit, and each caller keeps the order it has always computed.
    """
    rows, cols = base.shape
    width = max(1, _BLOCK_ENTRIES // rows)
    for lo in range(0, cols, width):
        # contiguous copies: each numpy call below is then one inner loop
        wb = np.ascontiguousarray(w[:, lo:lo + width])
        bb = np.ascontiguousarray(base[:, lo:lo + width])
        p = np.ones_like(bb)
        tmp = np.empty_like(bb)
        for n in range(out.shape[0]):
            np.multiply(wb, p, out=tmp)
            out[n, lo:lo + width] += tmp.sum(axis=0)
            if base_first:
                np.multiply(bb, p, out=p)
            else:
                np.multiply(p, bb, out=p)


_TAIL_CANCELLATION = 32.0   # loss the tail's binomial recombination may take


def _gauss_tail_cutoff(i_max, count, center, low):
    """The Gauss tail's cutoff K >= i_max at count rows, for points z with
    Re z >= low: the least K at which x = K+1+low meets two bounds.

    - x reaches the zeta rows' no-shift floor of the last order a double
      can hold as a normal number at Re a >= x (normal_orders); the floor
      falls as K grows, so K is stepped up to it until it holds.
    - The recombination's cancellation factor ((|c|+u)/(|c|-u))^(count-1),
      u = 1/x, the ratio of the binomial terms' moduli to the row they sum
      to, stays within _TAIL_CANCELLATION: u <= |c| tanh(log(cap) /
      (2 (count-1))). This is closed form, so the rule ends for every
      centre, |c| <= u at i_max included. With c = 0 the Pascal table is
      the identity and nothing cancels.
    """
    cutoff = max(i_max, math.floor(-low))           # so that x > 0
    if count > 1 and center != 0:
        u = abs(center) * math.tanh(math.log(_TAIL_CANCELLATION)
                                    / (2 * (count - 1)))
        cutoff = max(cutoff, math.ceil(1.0 / u - 1 - low))
    while True:
        top = normal_orders(count, cutoff + 1 + low) + 1
        need = math.ceil(unshifted_floor(top) - 1 - low)
        if need <= cutoff:
            return cutoff
        cutoff = need


def _gauss_power_tail(i_max, domain):
    """Closed-form tail power sums for the continued-fraction weights.

    Returns tail(z, count, center) with row n holding
    sum_{i > i_max} (i+z)^(-2) * (1/(i+z) - center)^n
    = sum_{j<=n} C(n,j) (-center)^(n-j) * zeta(j+2, K+1+z)
    for the cutoff K >= i_max of _gauss_tail_cutoff; branches between
    i_max and K are summed directly, and at the CLI's sizes there are none
    (K = i_max = 200 up to count 256 on its discs). The binomial
    recombination is one product of the Pascal table C(n,j) (-center)^(n-j)
    with the zeta rows, both built only for the orders j+2 whose values can
    be normal doubles at K+1+min Re z (normal_orders): a later order's
    value is below the smallest normal number, so leaving it out moves row
    n by at most C(n,j) |center|^(n-j) times that number. The table is
    built in long double and rounded once, so its entries carry about one
    rounding each, not one per row of the recurrence; where long double is
    double (as on some platforms) it has the double recurrence's rounding.
    """

    def tail(z, count, center, i_max=i_max):
        z = np.asarray(z, dtype=complex)
        low = float(z.real.min())
        cutoff = _gauss_tail_cutoff(i_max, count, center, low)
        orders = normal_orders(count, cutoff + 1 + low)
        # Pascal's rule in long double, rounded once: the recombination
        # amplifies the table's rounding by up to _TAIL_CANCELLATION
        pascal = np.zeros((count, orders), dtype=np.clongdouble)
        pascal[0, 0] = 1.0
        c = np.clongdouble(center)
        for n in range(1, count):
            m, k = min(n, orders - 1), min(n, orders)
            pascal[n, 1:m + 1] = pascal[n - 1, :m]
            pascal[n, :k] -= c * pascal[n - 1, :k]
        pascal = pascal.astype(complex)
        out = np.empty((count, z.size), dtype=complex)
        # in column blocks, so no (orders x len(z)) zeta table sits next to out
        width = max(1, _BLOCK_ENTRIES // count)
        for lo in range(0, z.size, width):
            np.matmul(pascal, hzeta_rows(orders, cutoff + 1 + z[lo:lo + width]),
                      out=out[:, lo:lo + width])
        if cutoff > i_max:
            idx = np.arange(i_max + 1, cutoff + 1)
            t = 1.0 / (idx[:, None] + z[None, :])
            w = t * t
            np.subtract(t, center, out=t)
            _power_sums(w, t, out, base_first=True)
        return out

    return tail


def make_gauss_system(i_max, domain=None):
    """Continued-fraction system: branches 1/(i+z), weights 1/(i+z)^2.

    The weights are the negated branch derivatives, a sign choice that makes
    the leading transfer-operator eigenvalue exactly 1 (the weighted branch
    sum telescopes against h(z) = 1/(1+z)). The alphabet is truncated at
    i_max with closed-form tail data, including exact weighted power sums of
    the dropped branches, so downstream consumers can represent the full
    countable family. Admissibility is closed-form geometry: the domain is
    rejected when a pole touches it or when the exact image discs of the
    branches reach past 98% of its radius.
    """
    if (isinstance(i_max, bool) or not isinstance(i_max, (int, np.integer))
            or i_max < 1):
        raise InadmissibleDomain(f"i_max must be a positive integer, got {i_max!r}")
    i_max = int(i_max)
    if domain is None:
        domain = make_ball(1.0, 1.5, 1)
    if domain.dim != 1:
        raise InadmissibleDomain("the continued-fraction family lives in dim 1")
    c, rho = domain.center, domain.radius
    # every branch pole -i must stay off the closed ball
    for i in range(1, i_max + max(3, math.ceil(abs(c) + rho)) + 1):
        if abs(i + c) <= rho * (1.0 + 1e-12):
            raise InadmissibleDomain(
                f"pole of branch {i} at {-i} touches the closed ball")

    # exact image discs of all branches i >= 1, with a 2% margin
    reach = _gauss_image_tail_sup(0, domain)
    if reach > 0.98 * rho:
        raise InadmissibleDomain(
            f"branch images reach {reach:.6g} from the center; not strictly "
            f"inside radius {rho:.6g}")

    branches = []
    for i in range(1, i_max + 1):
        br = make_moebius(0.0, 1.0, 1.0, float(i))
        br.name = f"1/({i}+z)"
        branches.append(br)
    weights = [_derivative_weight(br, "neg_derivative") for br in branches]

    alphabet = CountableTruncated(
        i_max=i_max,
        weight_tail_bound=_gauss_weight_tail_bound(i_max, domain),
        image_tail_sup=_gauss_image_tail_sup(i_max, domain),
        power_tail=_gauss_power_tail(i_max, domain),
        note="closed-form tail: shifted power-sum zeta values",
    )
    descriptor = {
        "family": "gauss",
        "params": [],
        "domain": {"center": [c.real, c.imag], "radius": rho, "dim": 1},
        "i_max": i_max,
    }
    return MapWeightSystem(branches, weights, domain, alphabet,
                           label="gauss", descriptor=descriptor)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Result of boundary-grid validation. All sups are sampled estimates
    plus an adjacent-sample safety term; they are not rigorous enclosures."""

    images_compactly_contained: bool
    image_sup: float
    image_tail_sup: float
    image_safety: float
    weight_sup: float
    weight_safety: float
    weight_tail_bound: float
    W: float
    margin: float
    grid_used: int
    worst_branch: int
    note: str = "boundary grid sample, non-rigorous"

    def to_dict(self):
        return asdict(self)


def _branch_values_on_grid(sys_, zs):
    """(letters, grid) arrays of branch images and weights.

    An all-Moebius system whose weights are all +-T' or constants
    broadcasts its (letters, 1) coefficient columns against the grid, with
    the arithmetic of the letter gathers element for element; any other
    system goes through the gathers.
    """
    if sys_._mob is None or sys_._wfactors is None:
        n, g = sys_.n_letters, zs.size
        letters = np.repeat(np.arange(1, n + 1), g)
        pts = np.tile(zs, n)
        images = sys_.apply_letters(letters, pts).reshape(n, g)
        weights = sys_.weight_letters(letters, pts).reshape(n, g)
        return images, weights
    a, b, c, e = (col[:, None] for col in sys_._mob)
    q = c * zs + e
    images = (a * zs + b) / q
    # q becomes the weight table in place: +-(ae - bc) / q^2, or constants
    np.multiply(q, q, out=q)
    np.divide(a * e - b * c, q, out=q)
    factor, deriv = sys_._wfactors
    np.multiply(factor[:, None], q, out=q)
    q[~deriv] = factor[~deriv, None]
    return images, q


def validate_system(sys_, margin=0.1, grid=1024):
    """Boundary-grid check of strict containment, plus the weight sup W.

    Supremum sampling runs on the boundary circle (the maximum principle
    puts the sup of any |analytic| there) and the grid doubles until both
    monitored sups change by less than 1e-10. The safety terms are half the
    largest adjacent-sample jump, a sampled stand-in for a Lipschitz bound.
    The report carries failures; this function raises only for unusable
    arguments.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0,1), got {margin!r}")
    if sys_.dim != 1:
        raise DimensionUnsupported(
            "boundary-grid validation is implemented for dim 1 only")

    ball = sys_.domain
    c, rho = ball.center, ball.radius
    g = max(int(grid), 16)
    prev = None
    while True:
        zs = ball.boundary_points(g)
        images = wabs = dist = None     # free the coarser grid's tables first
        images, wabs = _branch_values_on_grid(sys_, zs)
        wabs = np.abs(wabs)  # rebinding frees the complex table at once
        dist = np.abs(images - c)
        img_sup = float(dist.max())
        worst = int(np.argmax(dist.max(axis=1))) + 1
        wsum = wabs.sum(axis=0)
        w_sup = float(wsum.max())
        if prev is not None and (
            abs(img_sup - prev[0]) < _REFINE_TOL
            and abs(w_sup - prev[1]) < _REFINE_TOL
        ) or g >= _GRID_CAP:
            break
        prev = (img_sup, w_sup)
        g *= 2

    image_safety = 0.5 * float(np.max(np.abs(np.diff(
        np.concatenate([dist, dist[:, :1]], axis=1), axis=1))))
    weight_safety = 0.5 * float(np.max(np.abs(np.diff(
        np.concatenate([wsum, wsum[:1]])))))

    tail_sup = 0.0
    tail_bound = 0.0
    if isinstance(sys_.alphabet, CountableTruncated):
        tail_sup = float(sys_.alphabet.image_tail_sup)
        tail_bound = float(sys_.alphabet.weight_tail_bound)

    limit = (1.0 - margin) * rho
    contained = (img_sup + image_safety <= limit) and (tail_sup <= limit)
    return ValidationReport(
        images_compactly_contained=bool(contained),
        image_sup=img_sup,
        image_tail_sup=tail_sup,
        image_safety=image_safety,
        weight_sup=w_sup,
        weight_safety=weight_safety,
        weight_tail_bound=tail_bound,
        W=w_sup + tail_bound,
        margin=float(margin),
        grid_used=g,
        worst_branch=worst,
    )


# ---------------------------------------------------------------------------
# JSON descriptors


def _is_number(value):
    """A JSON number: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cnum(value, where):
    if _is_number(value):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_number(v) for v in value)):
        return complex(value[0], value[1])
    raise DescriptorError(f"{where}: expected a number or [re, im], got {value!r}")


def _parse_domain(d):
    if not isinstance(d, dict):
        raise DescriptorError("descriptor: 'domain' must be an object")
    for key in ("center", "radius", "dim"):
        if key not in d:
            raise DescriptorError(f"descriptor: domain is missing '{key}'")
    if not _is_number(d["dim"]) or d["dim"] != 1:
        raise DescriptorError("descriptor: only dim 1 domains are supported")
    if not _is_number(d["radius"]) or d["radius"] <= 0:
        raise DescriptorError(
            f"descriptor: domain radius must be positive, got {d['radius']!r}")
    return make_ball(_cnum(d["center"], "domain.center"), float(d["radius"]), 1)


def _parse_weight(spec, branch, where):
    if spec in ("derivative", "neg_derivative"):
        return _derivative_weight(branch, spec)
    try:
        return make_const(_cnum(spec, where))
    except DescriptorError:
        raise DescriptorError(
            f"{where}: weight must be 'derivative', 'neg_derivative', or a "
            f"constant, got {spec!r}") from None


def system_from_descriptor(desc):
    """Build a system from the JSON descriptor format.

    {"family": "gauss" | "moebius_list" | "affine_list",
     "params": [...], "domain": {"center": [re, im], "radius": rho, "dim": 1},
     "i_max": n}

    gauss ignores params and requires i_max. moebius_list entries are
    {"a": .., "b": .., "c": .., "e": .., "weight": ..}; affine_list entries
    are {"a": .., "b": .., "weight": ..}. Complex numbers are written as
    [re, im]; weights are "derivative", "neg_derivative", or a constant.
    """
    if not isinstance(desc, dict):
        raise DescriptorError("descriptor must be a JSON object")
    family = desc.get("family")
    if family not in ("gauss", "moebius_list", "affine_list"):
        raise DescriptorError(f"unknown family {family!r}")
    if "domain" not in desc:
        raise DescriptorError("descriptor is missing 'domain'")
    domain = _parse_domain(desc["domain"])

    if family == "gauss":
        if "i_max" not in desc:
            raise DescriptorError("gauss descriptor needs 'i_max'")
        i_max = desc["i_max"]
        if isinstance(i_max, bool) or not isinstance(i_max, int) or i_max < 1:
            raise DescriptorError(
                f"'i_max' must be a positive integer, got {i_max!r}")
        return make_gauss_system(i_max, domain)

    params = desc.get("params")
    if not isinstance(params, list) or not params:
        raise DescriptorError(f"{family} descriptor needs a non-empty 'params' list")
    branches = []
    weights = []
    for k, entry in enumerate(params):
        where = f"params[{k}]"
        if not isinstance(entry, dict):
            raise DescriptorError(f"{where}: expected an object")
        try:
            if family == "moebius_list":
                br = make_moebius(_cnum(entry["a"], where), _cnum(entry["b"], where),
                                  _cnum(entry["c"], where), _cnum(entry["e"], where))
            else:
                br = make_affine(_cnum(entry["a"], where), _cnum(entry["b"], where))
        except KeyError as missing:
            raise DescriptorError(f"{where}: missing coefficient {missing}") from None
        branches.append(br)
        weights.append(_parse_weight(entry.get("weight", 1.0), br, where))
    return MapWeightSystem(branches, weights, domain, Finite(len(branches)),
                           label=family, descriptor=desc)
