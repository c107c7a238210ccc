"""Holomorphic map-weight systems on ball domains.

A map-weight system is an indexed family of analytic branch maps T_i
sending a ball D strictly inside itself, together with scalar analytic
weights w_i. The associated transfer operator acts on holomorphic
functions by (L f)(z) = sum_i w_i(z) * f(T_i(z)).

This module provides the domain/map/system types, builders for the
parametric families (Moebius, affine, and the continued-fraction system
with branches 1/(i+z) and weights 1/(i+z)^2), validation of the
strict-containment geometry (closed form for Moebius systems, a boundary
grid otherwise), and JSON descriptor parsing.

The one countably infinite family, the continued-fraction one, is
represented by truncation at an index i_max plus analytic tail data that
make_gauss_system alone attaches: a bound on the summed sup norms of the
dropped weights, a bound on how far the dropped branch images reach from
the ball center, and a callable evaluating the dropped branches'
contribution to weighted power sums in closed form. Generic user systems
must be finite; summability of a black-box infinite family is not
checkable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np

try:
    # the interpreter's own SHA-1: hashlib's loads OpenSSL's libcrypto,
    # megabytes of resident memory in every process, for one short digest
    from _sha1 import sha1
except ImportError:         # an interpreter built without it
    from hashlib import sha1

from ._dual import derivative_scalar, jacobian
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

    def boundary_points(self, m, count=None):
        """The points c + rho exp(2 pi i k / m) of the boundary circle for
        k < count (default m: all m equispaced points; dim 1 only)."""
        if self.dim != 1:
            raise DimensionUnsupported("boundary sampling needs dim 1")
        k = np.arange(m if count is None else count)
        return self.center + self.radius * np.exp(2j * np.pi * k / m)


def make_ball(center, radius, dim=1):
    """Build a BallDomain, normalizing the center representation."""
    if (isinstance(dim, bool) or not isinstance(dim, (int, np.integer))
            or dim < 1):
        raise InvalidDomain(f"dim must be a positive integer, got {dim!r}")
    dim = int(dim)
    if isinstance(radius, bool) or not (float(radius) > 0.0):
        raise InvalidDomain(f"radius must be positive, got {radius!r}")
    seq = [complex(x) for x in np.ravel(center)]
    if len(seq) != dim:
        raise InvalidDomain(
            f"center has {len(seq)} coordinates but dim is {dim}")
    return BallDomain(seq[0] if dim == 1 else tuple(seq), float(radius), dim)


# ---------------------------------------------------------------------------
# analytic maps


class AnalyticMap:
    """An analytic map together with its derivative rule.

    fn maps C^dim -> C^dim (or -> C for scalar weights). When no closed-form
    derivative is supplied, forward-mode dual numbers differentiate fn, which
    works for any fn built from field arithmetic and integer powers.

    A numpy array is a batch of points: each element in dim 1, each column
    of a (dim, m) array in dim >= 2. Values, derivatives and Jacobians of a
    batch follow one rule. fn (or the derivative rule) is called on the
    whole batch, and the result is kept when it holds one result per point:
    the batch's shape in dim 1, and (dim, m) images, (m,) weights or
    (dim, dim, m) Jacobians in dim >= 2. One number in dim 1, or one
    (dim, dim) Jacobian in dim >= 2, is a constant map and holds at every
    point; a dim >= 2 image or weight of one point's shape is not, since a
    per-point fn that reduces over its argument (np.prod(z)) returns one
    for the whole batch. Otherwise the rule is called one point at a time:
    each element in dim 1, each column in dim >= 2. With m = dim the batch
    always goes column by column, because there a map that adds a
    length-dim vector broadcasts without error, but along the wrong axis.
    Anything that is not a batch, such as a scalar or one point, is passed
    to the rule as it is.
    """

    def __init__(self, fn, deriv=None, dim=1, name=""):
        self.dim = int(dim)
        if deriv is None:
            deriv = (partial(derivative_scalar, fn) if self.dim == 1
                     else partial(jacobian, fn, dim=self.dim))
        self._fn = fn
        self._deriv = deriv
        self.name = name

    def __repr__(self):
        return f"AnalyticMap({self.name or '<anonymous>'}, dim={self.dim})"

    def __call__(self, z):
        return self._apply(self._fn, z, ((self.dim,), ()), None)

    def derivative(self, z):
        """Derivative at z: a complex scalar for dim 1, else a dim x dim
        matrix, or a (dim, dim, m) stack at the m columns of a (dim, m)
        array."""
        jac = (self.dim, self.dim)
        out = self._apply(self._deriv, z, (jac,), jac)
        return out if self.dim == 1 else np.asarray(out, dtype=complex)

    def _apply(self, rule, z, heads, const):
        """rule at z by the rule above. heads are the shapes of one point's
        result in dim >= 2, const the one a whole batch may return for a
        constant map (or None); dim 1 sets both to a number."""
        if not (isinstance(z, np.ndarray) and (self.dim == 1 or z.ndim == 2)):
            return rule(z)
        if self.dim == 1:
            heads, const, points, each = ((),), (), z.shape, z.flat
        else:
            points, each = z.shape[1:], z.T
        if self.dim == 1 or z.shape[1] != self.dim:
            try:
                out = np.asarray(rule(z), dtype=complex)
                if any(out.shape == head + points for head in heads):
                    return out
                if out.shape == const:          # a constant map
                    out = out.reshape(const + (1,) * len(points))
                    return np.broadcast_to(out, const + points).copy()
            except (TypeError, ValueError):
                pass
        vals = np.array([rule(p) for p in each], dtype=complex)
        return np.moveaxis(vals, 0, -1).reshape(vals.shape[1:] + points)


def _moebius(coef, z, derivative=False, at=lambda col: col, image=False):
    """(a z + b)/(c z + e), or its derivative (a e - b c)/(c z + e)^2, for
    coef = (a, b, c, e): one map's numbers, or coefficient columns that
    broadcast against z, or that at gathers where each is used, so few
    gathered columns are alive at once. An array derivative is built in
    place in c z + e, so no second table of its size is made; with image
    it comes as (image, derivative), the image taken from the same c z + e
    before the derivative overwrites it."""
    a, b, c, e = coef
    q = at(c) * z + at(e)
    if not derivative:
        return (at(a) * z + at(b)) / q
    if not isinstance(q, np.ndarray):
        return (at(a) * at(e) - at(b) * at(c)) / (q * q)
    t = (at(a) * z + at(b)) / q if image else None
    np.multiply(q, q, out=q)
    np.divide(at(a) * at(e) - at(b) * at(c), q, out=q)
    return (t, q) if image else q


def _weigh(factor, power, deriv, out):
    """out = factor * (T')^power for law columns gathered or broadcast
    against out, power 0 or 1, and T' values deriv (read only where power
    is 1). out may be deriv or factor itself."""
    ones = power == 1
    if ones.any():
        np.multiply(factor, deriv, out=out, where=ones)
    np.copyto(out, factor, where=~ones)
    return out


class _Moebius(AnalyticMap):
    """z -> (a z + b)/(c z + e), with its coefficients (a, b, c, e)."""

    def __init__(self, coef):
        self.coefficients = coef
        super().__init__(partial(_moebius, coef),
                         partial(_moebius, coef, derivative=True),
                         name="moebius({},{},{},{})".format(*coef))


class _Weight(AnalyticMap):
    """The weight of law (factor, power): a constant for power 0, with the
    batch rule of dim, or factor * T' for the Moebius map T of coefficients."""

    def __init__(self, factor, power, coefficients=None, dim=1):
        self.law, self.coefficients = (factor, power), coefficients
        if power == 0:
            super().__init__(lambda z: factor, lambda z: 0.0 * z, dim=dim,
                             name=f"const({factor})")
        else:
            super().__init__(lambda z: factor * _moebius(
                coefficients, z, derivative=True), name=f"{factor}*T'")


def _moebius_row(a, b, c, e):
    """(a, b, c, e) as complex numbers; DegenerateMap when ae - bc = 0."""
    a, b, c, e = row = tuple(map(complex, (a, b, c, e)))
    if a * e - b * c == 0:
        raise DegenerateMap(f"ae - bc = 0 for (a,b,c,e)=({a},{b},{c},{e})")
    return row


def make_moebius(a, b, c, e):
    """z -> (a z + b)/(c z + e) with the exact derivative (ae - bc)/(cz + e)^2."""
    return _Moebius(_moebius_row(a, b, c, e))


def make_affine(a, b):
    """z -> a z + b with constant derivative a (a Moebius map with c=0, e=1)."""
    return make_moebius(a, b, 0.0, 1.0)


def make_const(value):
    """Constant scalar map, used for constant weights in any dim; a system
    reads its value from its weight law instead of calling it."""
    return _Weight(complex(value), 0)


# ---------------------------------------------------------------------------
# alphabets and the system aggregate


@dataclass(frozen=True, eq=False)
class CountableTruncated:
    """Alphabet {1, 2, ...} truncated at i_max, with analytic tail data.

    weight_tail_bound bounds sum_{i > i_max} sup_D |w_i|.
    image_tail_sup bounds sup_{i > i_max} sup_D |T_i(z) - center(D)|.
    power_tail is a callable (z_points, count, center) -> array of shape
    (count, len(z_points)) whose row n holds
    sum_{i > i_max} w_i(z) * (T_i(z) - center)^n evaluated in closed form;
    it lets the matrix discretization represent the full operator instead
    of the truncation. When the stored letters are real, so is the tail:
    at conj z and a real center it gives the conjugate rows, which lets the
    matrix route sample it on the upper half circle only.
    """

    i_max: int
    weight_tail_bound: float
    image_tail_sup: float
    power_tail: object


class MapWeightSystem:
    """Branches, weights, domain, and alphabet, plus vectorized letter gathers.

    Instances are immutable by convention. Letters are 1-based; letter l
    uses branches[l-1] and weights[l-1]. A system of maps has the finite
    alphabet of its branches (alphabet None); only make_gauss_system
    attaches a CountableTruncated one, its lists covering letters 1..i_max.
    system_id is fixed at build by _system_id, so a system of maps is
    named by its label, letter count and domain, not its maps.

    The closed forms read coefficients, the rows (a, b, c, e) when every
    branch is a dim-1 Moebius map, and law = (factor, power) when every
    weight is factor * (T')^power, power 0 (make_const) or 1 (+-T' beside
    its own branch T); each is None otherwise. A system built from the
    arrays derives its maps from them when first asked.
    """

    def __init__(self, branches, weights, domain, label="custom"):
        branches, weights, dim = tuple(branches), tuple(weights), domain.dim
        if not branches or len(branches) != len(weights):
            raise InvalidDomain(f"{len(branches)} branches and {len(weights)} "
                                "weights; one of each per letter is needed")
        if dim >= 2:    # a constant holds in any dim: rebuilt for this one
            weights = tuple(_Weight(w.law[0], 0, dim=dim) if isinstance(
                w, _Weight) and w.law[1] == 0 else w for w in weights)
            for w in weights:
                if not (isinstance(w, AnalyticMap) and w.dim == dim):
                    raise InvalidDomain(f"weight {w!r} is neither a constant "
                                        f"nor a map of the domain's dim {dim}")
        coefficients = law = None
        if dim == 1 and all(isinstance(b, _Moebius) for b in branches):
            coefficients = np.array([b.coefficients for b in branches])
        # the law takes the T' of the letter's branch: a +-T' weight joins
        # it only beside the branch it was made for
        if all(isinstance(w, _Weight) and (w.law[1] == 0 or isinstance(
                b, _Moebius) and np.array_equal(b.coefficients,
                                                w.coefficients))
               for b, w in zip(branches, weights)):  # complex factors
            law = tuple(map(np.array, zip(*(w.law for w in weights))))
        self._fill(coefficients, law, domain, None,
                   _system_id((label, len(branches), domain)))
        self.branches, self.weights = branches, weights

    @classmethod
    def _from_arrays(cls, coefficients, law, domain, alphabet, system_id):
        """A dim-1 system carried by its coefficients and weight law."""
        sys_ = cls.__new__(cls)
        sys_._fill(coefficients, law, domain, alphabet, system_id)
        return sys_

    def _fill(self, coefficients, law, domain, alphabet, system_id):
        self.coefficients, self.law, self.domain = coefficients, law, domain
        self.alphabet, self.system_id = alphabet, system_id

    # -- basic accessors ----------------------------------------------------

    @cached_property
    def branches(self):
        return tuple(map(_Moebius, self.coefficients.tolist()))

    @cached_property
    def weights(self):
        factor, power = (col.tolist() for col in self.law)
        return tuple(map(_Weight, factor, power, self.coefficients.tolist()))

    @property
    def dim(self):
        return self.domain.dim

    @property
    def n_letters(self):
        """Number of enumerable letters (i_max for truncated alphabets)."""
        return len(self.branches if self.coefficients is None
                   else self.coefficients)

    def __repr__(self):
        kind = "finite" if self.alphabet is None else "truncated"
        return (f"MapWeightSystem({self.system_id}, letters={self.n_letters}"
                f", dim={self.dim}, alphabet={kind})")

    # -- vectorized letter gathers -------------------------------------------

    def apply_letters(self, letters, z, groups=None):
        """T_{letters}(z) elementwise; letters int array, z complex array
        ((dim, count) for dim >= 2). groups, the column's letter groups
        from _letter_groups, spares regrouping a column that is reused."""
        if self.coefficients is not None:
            return _moebius(self.coefficients.T, z,
                            at=partial(np.take, indices=letters - 1))
        out = self._gather(lambda br, pts: br(pts), letters, z,
                           groups=groups)
        return out if self.dim == 1 else out.T

    def derivative_letters(self, letters, z, groups=None):
        """T'_{letters}(z) elementwise; for dim >= 2 a (count, dim, dim)
        stack of Jacobians."""
        if self.coefficients is not None:
            return _moebius(self.coefficients.T, z, derivative=True,
                            at=partial(np.take, indices=letters - 1))
        return self._gather(lambda br, pts: br.derivative(pts), letters, z,
                            groups=groups)

    def weight_letters(self, letters, z, deriv=None, groups=None):
        """w_{letters}(z) elementwise: by the weight law, or, when some
        weight of the system is generic, each weight map called on its
        points. deriv, when given, holds T'_{letters}(z) and saves
        recomputing it for factor * T' weights (dim 1)."""
        if self.law is None:
            return self._gather(lambda w, pts: w(pts), letters, z,
                                self.weights, groups)
        factor, power = (col[letters - 1] for col in self.law)
        if deriv is None and power.any():
            deriv = self.derivative_letters(letters, z, groups)
        return _weigh(factor, power, deriv, factor)

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
            out[pos] = vals.transpose(-1, *range(vals.ndim - 1))
        return out


def _system_id(source):
    """The short stable id of a system built from source: a descriptor
    dict gives its family and the hash of its canonical JSON, a tuple
    (label, letter count, domain) its label and the hash of its repr. A
    system takes its id once, at build."""
    if isinstance(source, dict):
        tag = source["family"]
        blob = json.dumps(source, sort_keys=True, separators=(",", ":"))
    else:
        tag, blob = source[0], repr(source)
    return f"{tag}-{sha1(blob.encode()).hexdigest()[:10]}"


def _letter_groups(letters):
    """(letter, positions) for each letter that occurs in the int column
    letters, in letter order; the positions ascend."""
    return [(letter, np.flatnonzero(letters == letter))
            for letter in np.flatnonzero(np.bincount(letters)).tolist()]


def _real_data(sys_):
    """Whether the system is carried by Moebius coefficients and a weight
    law whose numbers are all real, so that real points have real images,
    derivatives and weights. Decided from those arrays alone; a system
    without them (user maps) is never taken as real here: the matrix
    route reads its symmetry off its samples (spectra.assemble_matrix),
    and its traces stay complex."""
    return (sys_.coefficients is not None and sys_.law is not None
            and not sys_.coefficients.imag.any()
            and not sys_.law[0].imag.any())


def make_system(branches, weights, domain, label="custom"):
    """A finite system from explicit branch and weight lists. Its id names
    only the label, the letter count and the domain."""
    return MapWeightSystem(branches, weights, domain, label=label)


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


def _gauss_image_tail_sup(i_max, domain, reach):
    """Upper bound for sup_{i > i_max} sup_D |1/(i+z) - center|, given the
    reach (_image_reach) of each branch 1, 2, ..., i_max + 4000 in reach.

    Branch i maps the ball onto a disc computable in closed form; the probe
    block i_max + 1, ..., i_max + 4000 has the reach of its image discs,
    and the remaining branches are covered by |center| + max modulus of
    their image discs, which decreases in i, or for a real center by the
    real interval (0, b] that holds the diameters of those discs.
    """
    c, rho = domain.center, domain.radius
    probe = float(reach[i_max:i_max + 4000].max())
    start = i_max + 4001 + c.real - rho
    if c.imag == 0.0 and start > 0:
        # each far disc is symmetric about the real axis, with its real
        # diameter inside (0, b]: no point of it is farther from c than 0 or b
        b = 1.0 / start
        far = max(abs(c.real), abs(b - c.real))
    else:
        far = abs(c) + 1.0 / (i_max + 4001 - abs(c) - rho)
    return max(probe, far)


def _column_blocks(cols, rows):
    """Slices over cols columns in blocks of about _BLOCK_ENTRIES entries
    of a rows-row table: a fixed width aligned at 0, with no block one
    column wide unless cols is 1. numpy sums a (rows, 1) block along its
    contiguous axis pairwise, and takes a product with a one-column matrix
    down another BLAS routine, where a wider block is summed row by row
    and multiplied as the whole table is; so a one-column remainder joins
    the block before it.
    """
    width = max(2, _BLOCK_ENTRIES // rows)
    starts = list(range(0, cols, width))
    if len(starts) > 1 and cols - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [cols])]


def _power_sums(w, base, out, base_first=False):
    """out[n] += sum_i w[i] * base[i]**n for every row n of out.

    w and base are one (letters, width) column block of _column_blocks,
    and out is the matching (rows, width) view, so the running power and
    the product stay in cache. Each column gets the same operations in the
    same order as whole-array code, with the power step p * base, or
    base * p when base_first is set: numpy's complex multiply rounds the
    two orders differently in the last bit, and each caller keeps the
    order it has always computed. The products are C-ordered, so each
    column is summed row by row whatever the layout of w and base.
    """
    p = np.ones_like(base, order="C")
    tmp = np.empty_like(base, order="C")
    for n in range(out.shape[0]):
        np.multiply(w, p, out=tmp)
        out[n] += tmp.sum(axis=0)
        if base_first:
            np.multiply(base, p, out=p)
        else:
            np.multiply(p, base, out=p)


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


def _gauss_power_tail(i_max):
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
        for cols in _column_blocks(z.size, count):
            np.matmul(pascal, hzeta_rows(orders, cutoff + 1 + z[cols]),
                      out=out[:, cols])
        if cutoff > i_max:
            # nor a (letters x len(z)) table of the directly summed branches
            idx = np.arange(i_max + 1, cutoff + 1)[:, None]
            for cols in _column_blocks(z.size, idx.size):
                t = 1.0 / (idx + z[cols])
                w = t * t
                np.subtract(t, center, out=t)
                _power_sums(w, t, out[:, cols], base_first=True)
        return out

    return tail


def _gauss_rows(lo, hi):
    """The Moebius rows (0, 1, 1, i) of the branches 1/(i+z), lo <= i < hi."""
    rows = np.zeros((hi - lo, 4), dtype=complex)
    rows[:, 1:3] = 1.0
    rows[:, 3] = np.arange(lo, hi, dtype=float)
    return rows


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
    # every branch pole -i must stay off the closed ball: |i + c| <= touch
    # for the i within half = sqrt(touch^2 - Im c^2) of -Re c, the first of
    # them among four from just below -Re c - half; half cannot overflow
    touch, y = rho * (1.0 + 1e-12), abs(c.imag)
    half = 2 * math.sqrt(max(touch - y, 0.0)) * math.sqrt(touch / 4 + y / 4)
    first = max(1, math.floor(max(0.0, -c.real - half)) - 1)
    for i in range(first, first + 4):
        if abs(i + c) <= touch:
            raise InadmissibleDomain(
                f"pole of branch {i} at {-i} touches the closed ball")

    # exact image discs of all branches i >= 1, with a 2% margin, and of
    # the dropped ones, from one probe of the branches 1..i_max+4000
    reach = _image_reach(_gauss_rows(1, i_max + 4001), domain)[0]
    everywhere = _gauss_image_tail_sup(0, domain, reach)
    if everywhere > 0.98 * rho:
        raise InadmissibleDomain(
            f"branch images reach {everywhere:.6g} from the center; not "
            f"strictly inside radius {rho:.6g}")

    # the weights -T'
    coefficients = _gauss_rows(1, i_max + 1)
    law = (np.full(i_max, -1.0, dtype=complex), np.ones(i_max, dtype=int))
    alphabet = CountableTruncated(
        i_max=i_max,
        weight_tail_bound=_gauss_weight_tail_bound(i_max, domain),
        image_tail_sup=_gauss_image_tail_sup(i_max, domain, reach),
        power_tail=_gauss_power_tail(i_max),
    )
    descriptor = {"family": "gauss", "params": [], "i_max": i_max, "domain": {
        "center": [c.real, c.imag], "radius": rho, "dim": 1}}
    return MapWeightSystem._from_arrays(coefficients, law, domain, alphabet,
                                        _system_id(descriptor))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Result of validation. For a system of Moebius branches with +-T' or
    constant weights the sups come from closed forms, rounded outward, and
    grid_used is 0; note says whether weight_sup is the exact sup or an
    upper bound. For any other system the sups are sampled on a boundary
    grid, with an adjacent-sample safety term, and are not rigorous."""

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

    A system with coefficients and a weight law broadcasts its
    (letters, 1) coefficient and law columns against the grid, with the
    arithmetic of the letter gathers element for element; any other system
    goes through the gathers.
    """
    if sys_.coefficients is None or sys_.law is None:
        n, g = sys_.n_letters, zs.size
        letters = np.repeat(np.arange(1, n + 1), g)
        pts = np.tile(zs, n)
        images = sys_.apply_letters(letters, pts).reshape(n, g)
        weights = sys_.weight_letters(letters, pts).reshape(n, g)
        return images, weights
    images, q = _moebius(sys_.coefficients.T[:, :, None], zs,
                         derivative=True, image=True)
    # the derivative table becomes the weight table in place
    factor, power = sys_.law
    return images, _weigh(factor[:, None], power[:, None], q, q)


def _derivative_sups(det, C, E, ball):
    """sup over the ball's boundary circle of det / |C z + E|^2, for arrays
    of Moebius coefficients C, E and det = |AE - BC|, and the gap
    |C c + E| - |C| rho: the least |C z + E| on the circle, signed, so it
    is negative when the pole -E/C lies inside the ball. The sup is taken
    at the circle point nearest the pole; a pole on or inside the closed
    ball (gap <= 0) gives inf. A real center is taken as a float, so real
    C and E stay in float64, with the bits of the complex product."""
    c = ball.center
    if c.imag == 0.0:
        c = c.real
    gap = np.abs(C * c + E) - np.abs(C) * ball.radius
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(gap > 0.0, det / (gap * gap), np.inf), gap


# outward rounding of the closed-form sups: a few roundings of each formula
_ROUND_OUT = 1.0 + 4.0 * math.ulp(1.0)


def validate_system(sys_, margin=0.1, grid=1024):
    """Strict containment of the branch images, plus the weight sup W.

    A dim-1 system of Moebius branches with +-T' or constant weights is
    validated in closed form (_exact_sups), and grid is not used. Any other
    system is sampled on the boundary circle (the maximum principle puts
    the sup of any |analytic| there) and the grid doubles until both
    monitored sups change by less than 1e-10, or one is not finite, which
    the note names. The safety terms are half the largest adjacent-sample
    jump, a sampled stand-in for a Lipschitz bound. Either way the
    alphabet's tail data are added. The report carries failures; this
    function raises only for unusable arguments.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0,1), got {margin!r}")
    if sys_.dim != 1:
        raise DimensionUnsupported(
            "validation is implemented for dim 1 only")

    tail_sup = tail_bound = 0.0
    if isinstance(sys_.alphabet, CountableTruncated):
        tail_sup = float(sys_.alphabet.image_tail_sup)
        tail_bound = float(sys_.alphabet.weight_tail_bound)
    if sys_.coefficients is not None and sys_.law is not None:
        img_sup, w_sup, worst, note = _exact_sups(sys_)
        image_safety = weight_safety = 0.0
        g = 0
    else:
        img_sup, w_sup, worst, image_safety, weight_safety, g, note = (
            _sampled_sups(sys_, grid))

    limit = (1.0 - margin) * sys_.domain.radius
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
        note=note,
    )


@np.errstate(over="ignore", invalid="ignore")
def _image_reach(coefficients, ball):
    """The reach of each Moebius letter of the rows (a, b, c_i, e) of
    coefficients on the closed ball, with the letters' derivative sups and
    gaps (_derivative_sups) and p = c_i c + e.

    Letter i maps the closed ball of center c and radius rho onto the disc
    of center ((a c + b) conj(p) - a conj(c_i) rho^2) / D and radius
    |det| rho / D, with det = a e - b c_i and D = |p|^2 - |c_i|^2 rho^2
    = gap (|p| + |c_i| rho), so its reach from c is |center_i - c| +
    radius_i. A pole on or inside the closed ball (gap <= 0 or NaN) or a
    reach past the double range makes it inf. Nothing is rounded outward.
    """
    a, b, cc, e = coefficients.T
    c, rho = ball.center, ball.radius
    det = np.abs(a * e - b * cc)
    dsup, gap = _derivative_sups(det, cc, e, ball)
    p = cc * c + e
    inside = gap > 0.0
    denom = np.where(inside, gap * (np.abs(p) + np.abs(cc) * rho), 1.0)
    centers = ((a * c + b) * np.conj(p) - a * np.conj(cc) * (rho * rho)) / denom
    reach = np.abs(centers - c) + det * rho / denom
    return np.where(inside & (reach < np.inf), reach, np.inf), dsup, gap, p


@np.errstate(over="ignore", invalid="ignore")
def _exact_sups(sys_):
    """Image sup, weight sup, worst branch and note of a Moebius system.

    The image sup is the largest reach of a branch (_image_reach). A weight
    +-T' has sup |det| / gap^2, and a constant its modulus. The weight sup
    is the sum of these sups: the exact sup of the sum when every pole of a
    non-constant weight lies in one direction from c, since each term then
    peaks at the same circle point, and an upper bound otherwise. Both sups
    are rounded outward by _ROUND_OUT. A pole on or inside the closed ball
    makes both sups infinite, and a weight sup past the double range makes
    the weight sup infinite.
    """
    reach, dsup, gap, p = _image_reach(sys_.coefficients, sys_.domain)
    if not (gap > 0.0).all():      # a NaN gap, of overflowing parts, too
        worst = int(np.argmin(gap > 0.0)) + 1
        return (math.inf, math.inf, worst,
                f"pole of branch {worst} on or inside the closed ball")
    worst = int(np.argmax(reach))
    factor, power = sys_.law
    terms = _weigh(np.abs(factor), power, dsup, np.empty(len(dsup)))
    # each non-constant weight peaks at the circle point toward its pole,
    # in the direction of -p / c_i, that is of -p conj(c_i)
    cc = sys_.coefficients[:, 2]
    toward = (p * np.conj(cc))[(power == 1) & (cc != 0)]
    turn = toward * np.conj(toward[:1])
    aligned = bool(np.all(turn.imag == 0.0) and np.all(turn.real > 0.0))
    note = ("exact (Moebius closed form)" if aligned
            else "upper bound (Moebius closed form)")
    try:
        w_sup = math.fsum(terms.tolist()) * _ROUND_OUT
    except OverflowError:       # a finite sum past the double range
        w_sup = math.inf
    if w_sup == math.inf:
        note = "weight sup past the double range"
    return float(reach[worst]) * _ROUND_OUT, w_sup, worst + 1, note


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sampled_sups(sys_, grid):
    """Image sup, weight sup, worst branch, both safety terms, the final
    grid size and the note, sampled on a doubling boundary grid. The first
    grid with a sup that is not finite is the last, and the note names that
    sup."""
    ball = sys_.domain
    c = ball.center
    g = max(int(grid), 16)
    prev = None
    note = ValidationReport.note
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
        if not (math.isfinite(img_sup) and math.isfinite(w_sup)):
            name, value = (("image", img_sup) if not math.isfinite(img_sup)
                           else ("weight", w_sup))
            note = (f"{name} sup {value!r} on a boundary grid of {g} points, "
                    "non-rigorous")
            break
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
    return img_sup, w_sup, worst, image_safety, weight_safety, g, note


# ---------------------------------------------------------------------------
# JSON descriptors


def _is_number(value):
    """A finite JSON number: an int or float, but not a bool, NaN, an
    infinity or an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _cnum(value, where):
    if _is_number(value):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_number(v) for v in value)):
        return complex(value[0], value[1])
    raise DescriptorError(
        f"{where}: expected a finite number or [re, im], got {value!r}")


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


def _parse_weight(spec, where):
    """The weight law (factor, power) of a descriptor weight."""
    if spec in ("derivative", "neg_derivative"):
        return (1.0 if spec == "derivative" else -1.0) + 0j, 1
    try:
        return _cnum(spec, where), 0
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
    keys = "abce" if family == "moebius_list" else "ab"
    rows, laws = [], []
    for k, entry in enumerate(params):
        where = f"params[{k}]"
        if not isinstance(entry, dict):
            raise DescriptorError(f"{where}: expected an object")
        try:
            coef = [_cnum(entry[key], where) for key in keys]
        except KeyError as missing:
            raise DescriptorError(f"{where}: missing coefficient {missing}") from None
        if family == "affine_list":
            coef += [0.0, 1.0]          # z -> a z + b
        rows.append(_moebius_row(*coef))
        laws.append(_parse_weight(entry.get("weight", 1.0), where))
    law = tuple(map(np.array, zip(*laws)))    # complex factors, int powers
    return MapWeightSystem._from_arrays(np.array(rows), law, domain, None,
                                        _system_id(desc))
