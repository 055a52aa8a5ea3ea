import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgroups import (
    EngineRejection,
    UnramifiedParam,
    ValueExp,
    eval_on_coroot,
    is_wall,
    param_from_coords,
    same_character,
    stabilizer,
    trivial_param,
    weyl_act,
)
from rgroups.charlat import is_quadratic, param_add, table_act, value_table

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_value_group_laws(q1, t1, q2, t2):
    a = ValueExp(q1, t1)
    b = ValueExp(q2, t2)
    zero = ValueExp(Fraction(0), Fraction(0))
    assert a + b == b + a
    assert (a + b) - b == a
    assert a + zero == a
    assert (a + (-a)).is_trivial()
    assert 0 <= a.torsion < 1


def test_wall_values():
    assert not is_wall(ValueExp(0, 0))
    assert is_wall(ValueExp(1, 0))
    assert is_wall(ValueExp(-1, 0))
    assert not is_wall(ValueExp(Fraction(0), Fraction(1, 2)))
    assert not is_wall(ValueExp(1, Fraction(1, 2)))
    assert is_quadratic(ValueExp(0, Fraction(1, 2)))
    assert not is_quadratic(ValueExp(0, 0))


def test_basis_conversion_matches_pairings(context):
    ctx = context("B", 2, ())
    nu = param_from_coords(ctx.rs, (), ["1", "-1/2"], ["1/3", "0"], basis="fundamental-weight")
    for i in range(ctx.rs.rank):
        v = ctx.rs.pair_vec(nu.q_part, ctx.rs.roots[i])
        assert v == [Fraction(1), Fraction(-1, 2)][i]
        t = ctx.rs.pair_vec(nu.t_part, ctx.rs.roots[i])
        assert t == [Fraction(1, 3), Fraction(0)][i]


def test_eval_on_coroot_examples(context):
    # trivial character evaluates trivially everywhere
    ctx = context("B", 2, ())
    zero = trivial_param(ctx.rs, ())
    for ray in ctx.rd.rays:
        assert eval_on_coroot(ctx.rd, zero, ray).is_trivial()

    # rank one quadratic point has exact order two
    ctx1 = context("A", 1, ())
    chi = param_from_coords(ctx1.rs, (), ["0"], ["1/2"], basis="fundamental-weight")
    value = eval_on_coroot(ctx1.rd, chi, ctx1.rd.rays[0])
    assert value == ValueExp(0, Fraction(1, 2))
    assert is_quadratic(value)

    # half-sum of positive roots pairs to one with every simple coroot
    ctx2 = context("A", 2, ())
    rho = param_from_coords(ctx2.rs, (), ["1", "1"], ["0", "0"], basis="fundamental-weight")
    for ray in ctx2.rd.rays:
        if sum(ray.direction) == 1:  # simple rays
            assert eval_on_coroot(ctx2.rd, rho, ray) == ValueExp(1, 0)


def test_eval_rejects_foreign_rays(context):
    ctx = context("A", 2, ())
    other = context("A", 2, (0,))
    with pytest.raises(EngineRejection):
        eval_on_coroot(ctx.rd, trivial_param(ctx.rs, ()), other.rd.rays[0])


def test_param_vanishing_invariant(context):
    ctx = context("A", 3, (0, 2))
    with pytest.raises(EngineRejection):
        UnramifiedParam(ctx.rs, ctx.theta, (1, 0, 0), (0, 0, 0))
    nu = param_from_coords(
        ctx.rs, ctx.theta, ["0", "1", "0"], ["0", "0", "0"], basis="fundamental-weight"
    )
    assert nu.is_unitary() is False


def test_weyl_act_examples(context):
    ctx = context("A", 1, ())
    s = ctx.weyl.generators[0]
    nu = param_from_coords(ctx.rs, (), ["1"], ["0"], basis="fundamental-weight")
    moved = weyl_act(s, nu)
    assert eval_on_coroot(ctx.rd, moved, ctx.rd.rays[0]).q_exp == -1

    ctx3 = context("A", 3, (0, 2))
    swap = ctx3.rd.reflection_of[0]
    nu3 = param_from_coords(
        ctx3.rs, ctx3.theta, ["0", "1", "0"], ["0", "0", "0"], basis="fundamental-weight"
    )
    moved3 = weyl_act(swap, nu3)
    ray = ctx3.rd.rays[0]
    assert eval_on_coroot(ctx3.rd, moved3, ray) == -eval_on_coroot(ctx3.rd, nu3, ray)


def test_weyl_act_rejects_non_normalizing(context):
    ctx = context("A", 2, (0,))
    nu = trivial_param(ctx.rs, ctx.theta)
    # s_2 sends alpha_1 to alpha_1 + alpha_2, leaving the Levi subset
    with pytest.raises(EngineRejection):
        weyl_act(ctx.weyl.generators[1], nu)


def test_theta_vanishing_preserved_by_wm(context):
    ctx = context("A", 3, (0, 2))
    nu = param_from_coords(
        ctx.rs, ctx.theta, ["0", "1/2", "0"], ["0", "1/3", "0"], basis="fundamental-weight"
    )
    for w in ctx.wm.reps:
        weyl_act(w, nu)  # construction re-validates the invariant


def test_eval_equivariance(context):
    for family, rank, theta in [("A", 2, ()), ("B", 2, ()), ("A", 3, (0, 2))]:
        ctx = context(family, rank, theta)
        nu = param_from_coords(
            ctx.rs,
            theta,
            ["1/2" if i not in theta else "0" for i in range(rank)],
            ["1/3" if i not in theta else "0" for i in range(rank)],
            basis="fundamental-weight",
        )
        for w in ctx.wm.reps:
            moved = weyl_act(w, nu)
            perm = ctx.rd.rayperm(w)
            for ray in ctx.rd.rays:
                signed = perm[ray.index]
                target = ctx.rd.rays[abs(signed) - 1]
                value = eval_on_coroot(ctx.rd, moved, target)
                if signed < 0:
                    value = -value
                assert value == eval_on_coroot(ctx.rd, nu, ray)


def test_eval_additive_in_character(context):
    ctx = context("B", 2, ())
    a = param_from_coords(ctx.rs, (), ["1", "0"], ["1/2", "0"], basis="fundamental-weight")
    b = param_from_coords(ctx.rs, (), ["0", "-1"], ["1/3", "1/2"], basis="fundamental-weight")
    for ray in ctx.rd.rays:
        assert eval_on_coroot(ctx.rd, param_add(a, b), ray) == eval_on_coroot(
            ctx.rd, a, ray
        ) + eval_on_coroot(ctx.rd, b, ray)


def test_stabilizer_examples(context):
    ctx = context("A", 3, (0, 2))
    zero = trivial_param(ctx.rs, ctx.theta)
    assert len(stabilizer(zero, ctx.wm.reps)) == len(ctx.wm.reps)

    ctx1 = context("A", 1, ())
    quadratic = param_from_coords(ctx1.rs, (), ["0"], ["1/2"], basis="fundamental-weight")
    assert len(stabilizer(quadratic, ctx1.weyl.elements)) == 2

    exponent = param_from_coords(ctx1.rs, (), ["1"], ["0"], basis="fundamental-weight")
    assert len(stabilizer(exponent, ctx1.weyl.elements)) == 1


def test_stabilizer_is_subgroup(context):
    ctx = context("B", 2, ())
    nu = param_from_coords(ctx.rs, (), ["0", "0"], ["1/2", "0"], basis="fundamental-weight")
    stab = stabilizer(nu, ctx.weyl.elements)
    perms = {w.perm for w in stab}
    for a in stab:
        assert ctx.weyl.inv(a).perm in perms
        for b in stab:
            assert ctx.weyl.mult(a, b).perm in perms


def test_same_character_mod_one(context):
    ctx = context("A", 1, ())
    a = param_from_coords(ctx.rs, (), ["0"], ["1/2"], basis="fundamental-weight")
    b = param_from_coords(ctx.rs, (), ["0"], ["3/2"], basis="fundamental-weight")
    c = param_from_coords(ctx.rs, (), ["0"], ["1/3"], basis="fundamental-weight")
    assert same_character(a, b)
    assert not same_character(a, c)


TABLE_SYSTEMS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4),
]


@pytest.mark.parametrize("family, rank", TABLE_SYSTEMS)
def test_value_tables_pin_same_character_and_weyl_act(system, family, rank):
    rs, weyl = system(family, rank)
    rnd = random.Random(f"{family}{rank}")
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3, 4)]

    def vector():
        return [rnd.choice(values) for _ in range(rank)]

    def shifted(v, root, k):
        return [x + k * c for x, c in zip(v, root)]

    outcomes = set()
    for _ in range(24):
        a = UnramifiedParam(rs, (), vector(), vector())
        root = rs.roots[rnd.randrange(len(rs.roots))]
        k = rnd.choice([Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(1, 3)])
        # a root pairs integrally with every coroot, so an integral torsion
        # shift keeps the character and a fractional one may not
        for b in (
            UnramifiedParam(rs, (), a.q_part, shifted(a.t_part, root, k)),
            UnramifiedParam(rs, (), shifted(a.q_part, root, k), a.t_part),
            UnramifiedParam(rs, (), vector(), vector()),
        ):
            same = same_character(a, b)
            assert (value_table(a) == value_table(b)) == same
            outcomes.add(same)
        w = rnd.choice(weyl.elements)
        assert table_act(rs, weyl.inv(w).perm, value_table(a)) == value_table(weyl_act(w, a))
    assert outcomes == {True, False}
