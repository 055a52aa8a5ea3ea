"""Exact model of unramified characters.

A character value is a pair (q-exponent, torsion phase): the value at the
uniformizer is q^r times a root of unity e^{2 pi i s}, with r and s exact
rationals and s read modulo 1.  The residue cardinality q itself never gets
a numeric value; it stays a formal base, which turns every wall and
stabilizer condition into a decidable equality of rationals.

A character of the torus is a pair of rational vectors (q_part, t_part) in
simple-root coordinates.  Two t_parts describe the same torsion character
when their pairings with every simple coroot differ by integers; this is
the simply connected normalization, the one under which a quadratic twist
on a rank-one group is fixed by the reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._rat import invert, mat_vec, parse_rational
from .errors import EngineRejection
from .levi import RelativeData, RelativeRoot
from .rootsys import RootSystem, WeylElement


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class ValueExp:
    """Value group element q^r * e^{2 pi i s}: r exact, s reduced mod 1."""

    q_exp: Fraction
    torsion: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q_exp", Fraction(self.q_exp))
        object.__setattr__(self, "torsion", _mod1(Fraction(self.torsion)))

    def __add__(self, other):
        return ValueExp(self.q_exp + other.q_exp, self.torsion + other.torsion)

    def __neg__(self):
        return ValueExp(-self.q_exp, -self.torsion)

    def __sub__(self, other):
        return self + (-other)

    def is_trivial(self) -> bool:
        return self.q_exp == 0 and self.torsion == 0

    def as_strings(self):
        return {"q_exp": str(self.q_exp), "torsion": str(self.torsion)}


def is_wall(value: ValueExp) -> bool:
    """The two reducibility walls of a rank-one unramified induction: the
    character value is q^{+1} or q^{-1} exactly."""
    return value.torsion == 0 and value.q_exp in (1, -1)


def is_quadratic(value: ValueExp) -> bool:
    """Nontrivial value that squares to the trivial one."""
    return not value.is_trivial() and (value + value).is_trivial()


class UnramifiedParam:
    """An unramified character of a standard Levi, given by exact q-exponent
    and torsion vectors vanishing on the Levi's own coroots."""

    __slots__ = ("rs", "theta", "q_part", "t_part")

    def __init__(self, rs: RootSystem, theta, q_part, t_part):
        self.rs = rs
        self.theta = frozenset(theta)
        self.q_part = tuple(Fraction(x) for x in q_part)
        self.t_part = tuple(Fraction(x) for x in t_part)
        if len(self.q_part) != rs.rank or len(self.t_part) != rs.rank:
            raise EngineRejection("character vectors must have length equal to the rank")
        for j in sorted(self.theta):
            root = rs.roots[j]
            if rs.pair_vec(self.q_part, root) != 0:
                raise EngineRejection(
                    f"q-part does not vanish on the Levi coroot alpha_{j + 1}"
                )
            if _mod1(rs.pair_vec(self.t_part, root)) != 0:
                raise EngineRejection(
                    f"torsion part is nontrivial on the Levi coroot alpha_{j + 1}"
                )

    def __repr__(self):
        return f"UnramifiedParam(q={[str(x) for x in self.q_part]}, t={[str(x) for x in self.t_part]})"

    def is_unitary(self) -> bool:
        """No q-exponent anywhere: the character is a pure torsion twist."""
        return all(x == 0 for x in self.q_part)

    def q_only(self) -> "UnramifiedParam":
        return UnramifiedParam(self.rs, self.theta, self.q_part, (0,) * self.rs.rank)

    def torsion_only(self) -> "UnramifiedParam":
        return UnramifiedParam(self.rs, self.theta, (0,) * self.rs.rank, self.t_part)


def trivial_param(rs: RootSystem, theta) -> UnramifiedParam:
    zero = (Fraction(0),) * rs.rank
    return UnramifiedParam(rs, theta, zero, zero)


def param_add(a: UnramifiedParam, b: UnramifiedParam) -> UnramifiedParam:
    return UnramifiedParam(
        a.rs,
        a.theta & b.theta,
        tuple(x + y for x, y in zip(a.q_part, b.q_part)),
        tuple(x + y for x, y in zip(a.t_part, b.t_part)),
    )


def same_character(a: UnramifiedParam, b: UnramifiedParam) -> bool:
    """Equality as characters: q-parts agree exactly, torsion parts agree
    modulo 1 against every simple coroot."""
    if a.q_part != b.q_part:
        return False
    rs = a.rs
    diff = tuple(x - y for x, y in zip(a.t_part, b.t_part))
    return all(
        _mod1(rs.pair_vec(diff, rs.roots[i])) == 0 for i in range(rs.rank)
    )


def is_trivial_character(a: UnramifiedParam) -> bool:
    return same_character(a, trivial_param(a.rs, a.theta))


def weyl_act(w: WeylElement, nu: UnramifiedParam) -> UnramifiedParam:
    """Transport by w.  Only Levi-normalizing elements are allowed, so the
    vanishing invariant survives by construction."""
    if not all(w.perm[i] in nu.theta for i in nu.theta):
        raise EngineRejection(
            f"element {list(w.word)} does not normalize the Levi subset"
        )
    return UnramifiedParam(nu.rs, nu.theta, w.act(nu.q_part), w.act(nu.t_part))


# -- value tables ------------------------------------------------------------
#
# A value table holds a character by its pairings with the simple coroots,
# one entry (<q, alpha_i^vee> exact, <t, alpha_i^vee> mod 1) per simple
# root i.  Two tables are equal exactly when the characters satisfy
# same_character: the Cartan matrix is invertible, so equal q-pairings mean
# equal q-parts.  Tables hash, so a set of characters is a set of tables.


def _combo(coeffs, values):
    """Integer combination of exact values, skipping zero terms: tables of
    trivial twists then cost no Fraction arithmetic at all."""
    return sum(c * x for c, x in zip(coeffs, values) if c and x)


def value_table(a: UnramifiedParam) -> tuple:
    """The table of a character; <alpha_j, alpha_i^vee> is the Cartan entry
    A[i][j], so every pairing is an integer row times the coordinates."""
    return tuple(
        (_combo(row, a.q_part), _mod1(_combo(row, a.t_part)))
        for row in a.rs.cartan.matrix
    )


def table_act(rs: RootSystem, w_inv_perm, table) -> tuple:
    """The table of w.a from the table of a, given the permutation of w^-1:
    <w.a, alpha_i^vee> = <a, (w^-1 alpha_i)^vee>, and that coroot is the
    integer combination ``rs.coroot_coords[w_inv_perm[i]]`` of the simple
    coroots."""
    qs = [q for q, _ in table]
    ts = [t for _, t in table]
    out = []
    for i in range(rs.rank):
        coeffs = rs.coroot_coords[w_inv_perm[i]]
        out.append((_combo(coeffs, qs), _mod1(_combo(coeffs, ts))))
    return tuple(out)


def table_sum(a, b) -> tuple:
    """The table of the sum of two characters."""
    return tuple((qa + qb, _mod1(ta + tb)) for (qa, ta), (qb, tb) in zip(a, b))


def eval_on_coroot(rd: RelativeData, nu: UnramifiedParam, ray: RelativeRoot) -> ValueExp:
    """Character value on the intrinsic coroot of a reduced relative root."""
    if nu.theta != rd.theta:
        raise EngineRejection("character and relative data have different Levis")
    if rd.ray_by_restriction.get(ray.restriction) != ray.index:
        raise EngineRejection("ray does not belong to this Levi's relative roots")
    d = ray.direction
    norm = rd.rs.form_dot(d, d)
    q_val = 2 * rd.rs.form_dot(nu.q_part, d) / norm
    t_val = 2 * rd.rs.form_dot(nu.t_part, d) / norm
    return ValueExp(q_val, t_val)


def stabilizer(nu: UnramifiedParam, reps) -> tuple:
    """Exhaustive filter for the elements fixing the character."""
    return tuple(w for w in reps if same_character(weyl_act(w, nu), nu))


def fundamental_weight_matrix(rs: RootSystem):
    """Columns are the fundamental weights in simple-root coordinates."""
    return invert(rs.cartan.matrix)


def param_from_coords(
    rs: RootSystem, theta, q_coords, t_coords, basis: str = "simple-root"
) -> UnramifiedParam:
    """Build a character from rational coordinate lists.  In the
    'fundamental-weight' basis the i-th coordinate is the pairing with the
    i-th simple coroot, which is how grids are usually specified."""
    q = [parse_rational(x) for x in q_coords]
    t = [parse_rational(x) for x in t_coords]
    if len(q) != rs.rank or len(t) != rs.rank:
        raise EngineRejection("coordinate lists must match the rank")
    if basis == "fundamental-weight":
        m = fundamental_weight_matrix(rs)
        q = mat_vec(m, q)
        t = mat_vec(m, t)
    elif basis != "simple-root":
        raise EngineRejection(f"unknown basis {basis!r}")
    return UnramifiedParam(rs, theta, q, t)
