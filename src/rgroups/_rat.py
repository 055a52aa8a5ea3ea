"""Small exact linear algebra over Fraction vectors and matrices.

Everything here works on tuples of Fractions (or ints); nothing ever
touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import SchemaError

Vec = tuple
Mat = tuple


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a 'p/q' string.  Floats are
    rejected: they would silently destroy exactness."""
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(f"floats are not accepted, write {value!r} as a 'p/q' string")
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse rational {value!r}: {exc}") from None
    raise SchemaError(f"cannot parse rational from {type(value).__name__}")


def vec_dot(u: Vec, v: Vec):
    return sum(a * b for a, b in zip(u, v))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vec_dot(row, v) for row in m)


def solve(matrix, rhs) -> Vec:
    """Solve a square exact linear system by Gaussian elimination.

    Raises ValueError on a singular matrix.
    """
    n = len(rhs)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def invert(matrix) -> Mat:
    """Exact inverse of a square matrix."""
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        cols.append(solve(matrix, e))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def primitive(vec) -> tuple:
    """Scale a nonzero rational vector to the primitive integer vector on
    the same ray (positive multiple)."""
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = 0
    for k in ints:
        g = gcd(g, k)
    return tuple(k // g for k in ints)
