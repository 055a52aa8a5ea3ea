from itertools import product

import pytest

from rgroups import (
    EngineRejection,
    InvariantViolation,
    analyze,
    certify,
    decide_gps,
    decide_ps_unramified,
    longest_element,
    param_from_coords,
)
from rgroups import criterion
from rgroups._rat import primitive
from rgroups.levi import decompose_WM, relative_reflection_simple, split_reflections

from test_acceptance import GRID_Q, GRID_T, GRID_TYPES


def test_relative_roots_counts(context):
    # M = T in rank one: relative equals absolute
    ctx = context("A", 1, ())
    assert len(ctx.rd.rays) == 1  # one positive ray, i.e. two relative roots

    ctx = context("A", 2, (0,))
    assert len(ctx.rd.rays) == 1
    assert sorted(len(r.fiber) for r in ctx.rd.rays) == [2]

    ctx = context("A", 3, (0, 2))
    assert len(ctx.rd.rays) == 1
    assert ctx.rd.rays[0].fiber and len(ctx.rd.rays[0].fiber) == 4
    assert ctx.rd.rays[0].direction == (1, 2, 1)


def test_relative_weyl_group_orders(context):
    assert len(context("A", 2, (0,)).wm.reps) == 1
    assert len(context("A", 3, (0, 2)).wm.reps) == 2
    ctx = context("B", 3, ())
    assert len(ctx.wm.reps) == 48  # theta empty: all of W


def test_reflections_block_swap(context):
    ctx = context("A", 3, (0, 2))
    assert ctx.rd.phi0 == {0}
    swap = ctx.rd.reflection_of[0]
    assert swap.order() == 2
    # swap preserves theta
    assert {swap.perm[i] for i in (0, 2)} == {0, 2}


def test_reflections_empty_for_nonnormalizing(context):
    ctx = context("A", 2, (0,))
    assert ctx.rd.phi0 == frozenset()
    assert len(ctx.rd.rays) == 1  # phi_M nonempty while phi_M^0 empty


def test_reflections_absolute_case(context):
    ctx = context("A", 2, ())
    assert ctx.rd.phi0 == set(range(len(ctx.rd.rays)))
    for ray_index in ctx.rd.phi0:
        ray = ctx.rd.rays[ray_index]
        root_idx = ctx.rs.root_index[ray.direction]
        w = ctx.rd.reflection_of[ray_index]
        # the reflection negates exactly its own root
        assert w.perm[root_idx] == ctx.rs.negative_of(root_idx)
        assert w.order() == 2


def test_relative_reflection_simple_cases(context):
    # theta empty: the construction returns the plain simple reflection
    ctx = context("B", 2, ())
    for ray in ctx.rd.rays:
        if any(i < ctx.rs.rank for i in ray.fiber):
            omega = relative_reflection_simple(ctx.rd, ray)
            assert omega.perm == ctx.rd.reflection_of[ray.index].perm

    # A3 block case: order two and theta-preserving, agrees with the scan
    ctx3 = context("A", 3, (0, 2))
    omega = relative_reflection_simple(ctx3.rd, ctx3.rd.rays[0])
    assert omega.perm == ctx3.rd.reflection_of[0].perm
    assert omega.order() == 2

    # A2 with theta = {alpha1}: omega does not preserve theta
    ctx2 = context("A", 2, (0,))
    omega = relative_reflection_simple(ctx2.rd, ctx2.rd.rays[0])
    images = {omega.perm[0]}
    assert images != {0}


def test_relative_reflection_simple_rejects_general_rays(context):
    ctx = context("B", 3, (0, 1))
    non_simple = [r for r in ctx.rd.rays if not any(i < ctx.rs.rank for i in r.fiber)]
    if non_simple:
        with pytest.raises(EngineRejection):
            relative_reflection_simple(ctx.rd, non_simple[0])


def test_decompose_examples(context):
    ctx = context("A", 3, (0, 2))
    assert len(ctx.dec.small) == 2
    assert len(ctx.dec.complement) == 1

    ctx = context("A", 2, (0,))
    assert len(ctx.dec.small) == 1 and len(ctx.dec.complement) == 1

    ctx = context("A", 2, ())
    assert len(ctx.dec.small) == len(ctx.wm.reps) == 6
    assert len(ctx.dec.complement) == 1


def test_factorization_roundtrip(context):
    ctx = context("B", 3, (1,))
    products = [ctx.weyl.mult(w0, w1) for w0 in ctx.dec.small for w1 in ctx.dec.complement]
    assert sorted(w.perm for w in products) == sorted(w.perm for w in ctx.wm.reps)


def test_delta0(context):
    assert context("A", 2, (0,)).rd.delta0 == ()
    ctx = context("A", 2, ())
    assert set(ctx.rd.delta0) == {
        r.index for r in ctx.rd.rays if sum(r.direction) == 1
    }
    ctx3 = context("A", 3, (0, 2))
    assert len(ctx3.rd.delta0) == 1


def test_rayperm_is_signed_permutation(context):
    for mask in range(2**3):
        theta = [i for i in range(3) if mask >> i & 1]
        ctx = context("B", 3, tuple(theta))
        m = len(ctx.rd.rays)
        for w in ctx.wm.reps:
            perm = ctx.rd.rayperm(w)
            assert sorted(abs(s) for s in perm) == list(range(1, m + 1))


def test_relative_coroot_normalization(context):
    for family, rank, theta in [("A", 3, (0, 2)), ("B", 3, (1,)), ("G", 2, ())]:
        ctx = context(family, rank, theta)
        for ray in ctx.rd.rays:
            coroot = ctx.rd.relative_coroot(ray)
            pairing = ctx.rs.form_dot(ray.direction, coroot)
            assert pairing == 2


def test_theta_full_is_trivial(context):
    ctx = context("A", 2, (0, 1))
    assert len(ctx.rd.rays) == 0
    assert len(ctx.wm.reps) == 1
    assert len(ctx.dec.small) == 1 and len(ctx.dec.complement) == 1


def test_minimal_coset_property(context):
    ctx = context("B", 3, (0, 2))
    w0_levi = longest_element(ctx.rs, ctx.theta)
    for w in ctx.wm.reps:
        for i in ctx.rd.levi_positive:
            assert w.perm[i] < ctx.rs.n_pos
        # multiplying by the Levi longest element always gains length
        assert ctx.weyl.mult(w, w0_levi).length() >= w.length()


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)])
def test_certify_rank_le_three(system, family, rank):
    rs, weyl = system(family, rank)
    for mask in range(2**rank):
        theta = [i for i in range(rank) if mask >> i & 1]
        result = certify(rs, weyl, theta)
        assert result.ok, (family, rank, theta, result.failures)


def primitive_rayperm(rd, w):
    """Ray permutation recomputed from the restriction of each ray head's
    image, normalized with ``primitive``."""
    out = []
    for ray in rd.rays:
        rest = rd.restrict(rd.rs.roots[w.perm[ray.fiber[0]]])
        sign = 1 if all(c >= 0 for c in rest) else -1
        key = primitive(tuple(sign * c for c in rest))
        out.append(sign * (rd.ray_by_restriction[key] + 1))
    return tuple(out)


LEVI_SYSTEMS = [("B", 3), ("D", 4), ("F", 4)]


@pytest.mark.parametrize("family,rank", LEVI_SYSTEMS)
def test_rayperm_table_matches_primitive(context, family, rank):
    for mask in range(2**rank):
        theta = tuple(i for i in range(rank) if mask >> i & 1)
        ctx = context(family, rank, theta)
        for w in ctx.wm.reps:
            assert ctx.rd.rayperm(w) == primitive_rayperm(ctx.rd, w), (theta, w.word)


def _splitting_points(ctx):
    """The acceptance grid on rank two; the trivial and a quadratic
    character above."""
    n = ctx.rs.rank
    if n == 2:
        pairs = [(q, t) for q in GRID_Q for t in GRID_T]
        coords = [([a[0], b[0]], [a[1], b[1]]) for a, b in product(pairs, repeat=2)]
    else:
        coords = [(["0"] * n, ["0"] * n), (["0"] * n, ["1/2"] + ["0"] * (n - 1))]
    return [param_from_coords(ctx.rs, (), q, t, basis="fundamental-weight") for q, t in coords]


@pytest.mark.parametrize("family,rank", GRID_TYPES + LEVI_SYSTEMS)
def test_w0_from_base_equals_closure_over_phi0(context, monkeypatch, family, rank):
    """Closing over the base of a ray set gives the group generated by all
    of its reflections: for W0 on every Levi, and for the stabilizer
    splitting and the Knapp-Stein ladder at the points above."""
    for mask in range(2**rank):
        theta = tuple(i for i in range(rank) if mask >> i & 1)
        ctx = context(family, rank, theta)
        full = ctx.weyl.closure([ctx.rd.reflection_of[r] for r in sorted(ctx.rd.phi0)])
        assert len(ctx.dec.small) == len(full), theta
        assert ctx.dec.small == full, theta

    labels = set()

    def checked(rd, weyl, group, rays, label):
        small, comp = split_reflections(rd, weyl, group, rays, label)
        assert small == weyl.closure([rd.reflection_of[r] for r in sorted(rays)]), label
        labels.add(label)
        return small, comp

    monkeypatch.setattr(criterion, "split_reflections", checked)
    ctx = context(family, rank, ())
    for lam in _splitting_points(ctx):
        decide_ps_unramified(ctx, lam)
        decide_gps(ctx, lam)
    assert labels == {"stabilizer splitting", "Knapp-Stein splitting"}


def test_rayperm_rejects_element_sending_a_ray_into_the_levi(context):
    ctx = context("A", 2, (0,))
    w = ctx.weyl.element_from_word((1, 0))  # s_2 s_1 sends alpha_2 to alpha_1
    head = ctx.rd.rays[0].fiber[0]
    assert w.perm[head] in ctx.rd.levi_roots
    with pytest.raises(InvariantViolation, match="does not permute the relative roots"):
        ctx.rd.rayperm(w)


def test_decompose_order_product_guard_fires(system, monkeypatch):
    rs, weyl = system("B", 3)
    ctx = analyze(rs, weyl, ())
    assert len(ctx.rd.delta0) == 3
    base = ctx.rd.simple_rays(ctx.rd.phi0)
    monkeypatch.setattr(ctx.rd, "simple_rays", lambda rays: base[:1])
    with pytest.raises(InvariantViolation, match="W0"):
        decompose_WM(ctx.rd, ctx.wm, weyl)


def test_relative_data_not_mutated_after_analysis(system):
    rs, weyl = system("B", 3)
    ctx = analyze(rs, weyl, (0,))
    before = {k: dict(v) if isinstance(v, dict) else v for k, v in vars(ctx.rd).items()}
    for w in weyl:  # also elements outside W_M, as long as they move rays to rays
        try:
            ctx.rd.rayperm(w)
        except InvariantViolation:
            pass
    decompose_WM(ctx.rd, ctx.wm, weyl)  # splitting again reads the rays only
    assert vars(ctx.rd) == before
