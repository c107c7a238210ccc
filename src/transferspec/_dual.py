"""Forward-mode differentiation with complex dual numbers.

Used as the default derivative rule for user-supplied analytic maps;
built-in families override it with closed forms. A Dual carries a value
and the directional derivative along one input direction. Only the field
operations and integer powers are provided: those are exactly the
operations available to a holomorphic expression built from rational
arithmetic. Non-holomorphic operations (abs, conjugate, comparisons)
are deliberately absent so misuse fails loudly. numpy's ufuncs (np.exp,
np.sqrt, ...) are not provided either: one called on a Dual raises a
TransferOperatorError that names it, and such a map needs a derivative
rule of its own.

Values may be numpy arrays; all operations broadcast elementwise.
"""

from __future__ import annotations

import numpy as np

from .errors import TransferOperatorError


class Dual:
    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __getattr__(self, name):
        # numpy applies a ufunc to an object by calling the method of its
        # name, z.exp() for np.exp(z): that method refuses by name
        if not isinstance(getattr(np, name, None), np.ufunc):
            raise AttributeError(name)

        def refuse(*args, **kwargs):
            raise TransferOperatorError(
                f"np.{name} cannot take a dual number; give the map a "
                "derivative rule (AnalyticMap's deriv)")
        return refuse

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __pos__(self):
        return self

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.eps * other.val + self.val * other.eps)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.eps - self.val * inv * other.eps) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -other * inv * inv * self.eps)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("Dual supports integer powers only; "
                            "write fractional powers in closed form")
        if n < 0:
            return 1.0 / self.__pow__(-n)
        result = Dual(self.val * 0 + 1.0, self.eps * 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def derivative_scalar(fn, z):
    """d fn/dz at a point (or elementwise on an array) for scalar analytic fn,
    in z's shape: the dual part plus zeros_like(z), which also makes its
    zero parts +0.0, or z * 0 for a fn that ignores its argument."""
    out = fn(Dual(z, np.ones_like(z)))
    if isinstance(out, Dual):
        return out.eps + np.zeros_like(z)
    return z * 0  # fn ignored its argument, constant map


def jacobian(fn, z, dim):
    """dim x dim complex Jacobian of fn: C^dim -> C^dim at z, a sequence of
    dim coordinates. Coordinates that are arrays of m points give a
    (dim, dim, m) stack, entry [i, j] holding d fn_i / d z_j.

    fn must accept a sequence of scalars (here Duals) and return a sequence
    of length dim. One call carries every direction: coordinate k is seeded
    with the k-th unit vector.
    """
    z = np.asarray(z, dtype=complex)
    seeds = np.eye(dim).reshape((dim, dim) + (1,) * (z.ndim - 1))
    out = fn([Dual(z[k], seeds[k]) for k in range(dim)])
    jac = np.zeros((dim, dim) + z.shape[1:], dtype=complex)
    for i in range(dim):
        if isinstance(out[i], Dual):
            jac[i] = out[i].eps
    return jac
