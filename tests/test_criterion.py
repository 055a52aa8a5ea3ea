from itertools import product
from math import log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgroups import (
    EngineRejection,
    InvariantViolation,
    decide_gps,
    decide_ps_unramified,
    delta_1,
    explicit_oracle,
    knapp_stein_ladder,
    param_from_coords,
    phi_sigma_nu_0,
    product_formula_count,
    r_group,
    translate_datum,
    trivial_param,
    trivial_twist_oracle,
    conjecture_predict,
)
from rgroups.charlat import (
    UnramifiedParam,
    eval_on_coroot,
    param_add,
    same_character,
    stabilizer,
    weyl_act,
)
from rgroups.criterion import unramified_oracle
from rgroups.levi import split_reflections


def fw(ctx, q, t):
    return param_from_coords(
        ctx.rs, ctx.theta, [str(x) for x in q], [str(x) for x in t], basis="fundamental-weight"
    )


def test_stabilizer_with_minimal_oracle(context):
    ctx = context("A", 2, ())
    oracle = explicit_oracle(((ctx.weyl.identity, trivial_param(ctx.rs, ())),))
    nu = fw(ctx, [0, 0], [0, 0])
    assert oracle.datum_stabilizer(ctx, nu) == (ctx.weyl.identity,)


def test_stabilizer_quadratic_sl2(context):
    ctx = context("A", 1, ())
    lam = fw(ctx, [0], ["1/2"])
    nu, oracle = unramified_oracle(ctx, lam)
    assert len(oracle.datum_stabilizer(ctx, nu)) == 2


def test_stabilizer_block_swap(context):
    ctx = context("A", 3, (0, 2))
    oracle = trivial_twist_oracle(ctx)  # every relative element fixes sigma
    nu = trivial_param(ctx.rs, ctx.theta)
    assert len(oracle.datum_stabilizer(ctx, nu)) == 2


def test_phi_sigma_nu_0_contrast(context):
    # quadratic point: the datum-fixed rays differ from the value-trivial ones
    ctx = context("A", 1, ())
    lam = fw(ctx, [0], ["1/2"])
    nu, oracle = unramified_oracle(ctx, lam)
    stab = oracle.datum_stabilizer(ctx, nu)
    assert phi_sigma_nu_0(ctx, stab) == frozenset({0})
    assert phi_sigma_nu_0(ctx, (ctx.weyl.identity,)) == frozenset()


def test_r_group_both_readings_sl2(context):
    ctx = context("A", 1, ())
    lam = fw(ctx, [0], ["1/2"])
    nu, oracle = unramified_oracle(ctx, lam)
    stab = oracle.datum_stabilizer(ctx, nu)
    # datum-fixed reading: the reflection accounts for the full stabilizer
    small, comp = r_group(ctx, stab, frozenset({0}))
    assert len(small) == 2 and len(comp) == 1
    # value-trivial reading: nothing to generate, complement is everything
    small2, comp2 = r_group(ctx, stab, frozenset())
    assert len(small2) == 1 and len(comp2) == 2


def test_delta_1_examples(context):
    ctx = context("A", 1, ())
    zero = trivial_param(ctx.rs, ())
    rays, group, base = delta_1(ctx, zero)
    assert rays == frozenset({0}) and len(group) == 2 and base == (0,)

    quadratic = fw(ctx, [0], ["1/2"])
    rays, group, base = delta_1(ctx, quadratic)
    assert rays == frozenset() and len(group) == 1 and base == ()

    ctx2 = context("A", 2, ())
    mixed = fw(ctx2, [0, 1], [0, 0])
    rays, group, base = delta_1(ctx2, mixed)
    alpha1 = next(r.index for r in ctx2.rd.rays if r.direction == (1, 0))
    assert rays == frozenset({alpha1})
    assert base == (alpha1,)


def test_knapp_stein_ladder_cases(context):
    ctx = context("A", 1, ())
    lam = fw(ctx, [0], ["1/2"])
    nu, oracle = unramified_oracle(ctx, lam)
    stab = oracle.datum_stabilizer(ctx, nu)
    phi0 = phi_sigma_nu_0(ctx, stab)
    small, comp = r_group(ctx, stab, phi0)

    # quadratic: mu vanishing fails, classical R-group survives
    w0p, rp, r0 = knapp_stein_ladder(ctx, stab, phi0, {0: False}, small, comp)
    assert len(w0p) == 1 and len(rp) == 2 and len(r0) == 2 and len(comp) == 1

    # all mu true: ladder collapses onto the modified data
    w0p, rp, r0 = knapp_stein_ladder(ctx, stab, phi0, {0: True}, small, comp)
    assert len(w0p) == len(small) and len(rp) == len(comp) and len(r0) == 1

    # all mu false: nothing splits off
    w0p, rp, r0 = knapp_stein_ladder(ctx, stab, phi0, {0: False}, small, comp)
    assert len(w0p) == 1 and len(rp) == len(stab)


def test_decide_gps_block_swap_fixture(context):
    ctx = context("A", 3, (0, 2))
    nu = trivial_param(ctx.rs, ctx.theta)
    oracle = trivial_twist_oracle(ctx, mu_zero={0: True}, corank_irred={0: True})
    report = decide_gps(ctx, nu, oracle)
    assert report.stab.order == 2
    assert report.r.order == 1
    assert report.verdict == "irreducible"
    assert report.shortcuts["unitary"]["applies"]

    bad = trivial_twist_oracle(ctx, mu_zero={0: False}, corank_irred={0: False})
    report = decide_gps(ctx, nu, bad)
    assert report.verdict == "reducible"
    assert report.reasons[0]["clause"] == "corank-one-reducible"


def test_decide_gps_missing_flags_rejected(context):
    ctx = context("A", 3, (0, 2))
    nu = trivial_param(ctx.rs, ctx.theta)
    oracle = trivial_twist_oracle(ctx, mu_zero={0: True}, corank_irred=None)
    with pytest.raises(EngineRejection, match="corank_irred"):
        decide_gps(ctx, nu, oracle)


def test_decide_gps_requires_oracle_for_proper_levi(context):
    ctx = context("A", 3, (0, 2))
    with pytest.raises(EngineRejection, match="oracle"):
        decide_gps(ctx, trivial_param(ctx.rs, ctx.theta))


def test_decide_gps_rejects_torsion_exponent_with_explicit_oracle(context):
    ctx = context("A", 3, (0, 2))
    nu = fw(ctx, [0, 0, 0], [0, "1/2", 0])
    oracle = trivial_twist_oracle(ctx, mu_zero={0: True}, corank_irred={0: True})
    with pytest.raises(EngineRejection, match="real"):
        decide_gps(ctx, nu, oracle)


def test_decide_ps_sl2_points(context):
    ctx = context("A", 1, ())
    assert decide_ps_unramified(ctx, fw(ctx, [0], [0])).verdict == "irreducible"

    wall = decide_ps_unramified(ctx, fw(ctx, [1], [0]))
    assert wall.verdict == "reducible"
    assert wall.reasons[0]["clause"] == "wall"

    quad = decide_ps_unramified(ctx, fw(ctx, [0], ["1/2"]))
    assert quad.verdict == "reducible"
    assert quad.r.order == 2


def test_regular_shortcut_paths(context):
    ctx = context("A", 1, ())
    report = decide_gps(ctx, fw(ctx, ["1/3"], [0]))
    assert report.stab.order == 1
    assert report.shortcuts["regular"] == {"applies": True, "verdict": "irreducible"}

    wall = decide_gps(ctx, fw(ctx, [1], [0]))
    assert wall.shortcuts["regular"] == {"applies": True, "verdict": "reducible"}

    quad = decide_gps(ctx, fw(ctx, [0], ["1/2"]))
    assert quad.shortcuts["regular"] == {"applies": False}


def test_unitary_shortcut_paths(context):
    ctx = context("A", 1, ())
    quad = decide_gps(ctx, fw(ctx, [0], ["1/2"]))
    assert quad.shortcuts["unitary"]["applies"]
    assert quad.shortcuts["unitary"]["verdict"] == "reducible"

    nonunitary = decide_gps(ctx, fw(ctx, [1], [0]))
    assert nonunitary.shortcuts["unitary"] == {"applies": False}


def test_unitary_oracle_inconsistency_rejected(context):
    ctx = context("A", 3, (0, 2))
    nu = trivial_param(ctx.rs, ctx.theta)
    oracle = trivial_twist_oracle(ctx, mu_zero={0: True}, corank_irred={0: False})
    with pytest.raises(EngineRejection, match="unitary"):
        decide_gps(ctx, nu, oracle)


def test_orbit_constancy_enforced(context):
    ctx = context("A", 2, ())
    nu = trivial_param(ctx.rs, ())
    rays = list(range(len(ctx.rd.rays)))
    flags = {r: (r != 0) for r in rays}
    oracle = trivial_twist_oracle(ctx, mu_zero={r: True for r in rays}, corank_irred=flags)
    with pytest.raises(EngineRejection, match="orbit"):
        decide_gps(ctx, nu, oracle)


def test_oracle_pair_closure_validation(context):
    ctx = context("A", 2, ())
    triv = trivial_param(ctx.rs, ())
    s1 = ctx.weyl.generators[0]
    s2 = ctx.weyl.generators[1]
    pairs = ((ctx.weyl.identity, triv), (s1, triv), (s2, triv))
    oracle = explicit_oracle(
        pairs,
        mu_zero={r: True for r in range(3)},
        corank_irred={r: True for r in range(3)},
    )
    with pytest.raises(EngineRejection, match="closed"):
        decide_gps(ctx, trivial_param(ctx.rs, ()), oracle)


def test_ps_gps_consistency_small_grid(context):
    ctx = context("A", 2, ())
    values = ["-1", "0", "1"]
    torsions = ["0", "1/2"]
    coords = list(product(values, torsions))
    for p1 in coords:
        for p2 in coords:
            lam = fw(ctx, [p1[0], p2[0]], [p1[1], p2[1]])
            ps = decide_ps_unramified(ctx, lam)
            gps = decide_gps(ctx, lam)
            assert ps.verdict == gps.verdict, (p1, p2)


def test_ps_gps_consistency_rank_three(context):
    ctx = context("B", 3, ())
    coords = [("0", "0"), ("1", "0"), ("0", "1/2"), ("-1/2", "1/3")]
    for c1, c2, c3 in product(coords, repeat=3):
        lam = fw(ctx, [c1[0], c2[0], c3[0]], [c1[1], c2[1], c3[1]])
        assert decide_ps_unramified(ctx, lam).verdict == decide_gps(ctx, lam).verdict


def test_translation_invariance_full_wm(context):
    ctx = context("A", 3, (0, 2))
    nu = fw(ctx, [0, "1/2", 0], [0, 0, 0])
    oracle = trivial_twist_oracle(ctx, mu_zero={0: True}, corank_irred={0: True})
    base = decide_gps(ctx, nu, oracle)
    for w in ctx.wm.reps:
        nu_t, oracle_t = translate_datum(ctx, w, nu, oracle)
        assert decide_gps(ctx, nu_t, oracle_t).verdict == base.verdict


def test_product_formula_single_block(context):
    ctx = context("A", 2, ())
    report = decide_gps(ctx, fw(ctx, ["1/3", "1/5"], [0, 0]))
    assert report.verdict == "irreducible"
    assert product_formula_count(ctx, [[0, 1]], [5], report) == 5


def test_product_formula_two_blocks(context):
    ctx = context("A", 3, ())
    lam = fw(ctx, ["1", "1/3", "1"], [0, 0, 0])
    report = decide_gps(ctx, lam)
    assert report.verdict == "reducible"
    assert product_formula_count(ctx, [[0], [2]], [2, 3], report) == 6


def test_product_formula_rejects_crossing(context):
    ctx = context("A", 3, ())
    lam = fw(ctx, ["1/2", "1/2", "1/4"], [0, 0, 0])
    report = decide_gps(ctx, lam)
    ray_dirs = [item["direction"] for item in report.corank if not item["irreducible"]]
    assert [1, 1, 0] in ray_dirs  # the crossing wall
    with pytest.raises(EngineRejection, match="crosses"):
        product_formula_count(ctx, [[0], [2]], [2, 2], report)


def test_product_formula_rejects_non_orthogonal_blocks(context):
    ctx = context("A", 2, ())
    report = decide_gps(ctx, fw(ctx, ["1/3", "1/5"], [0, 0]))
    with pytest.raises(EngineRejection, match="orthogonal"):
        product_formula_count(ctx, [[0], [1]], [1, 1], report)


def test_predict_pairwise_gl_mode(context):
    ctx = context("A", 5, (0, 2, 4))  # three blocks of size two
    nu = trivial_param(ctx.rs, ctx.theta)
    oracle = trivial_twist_oracle(ctx)
    pairs_true = {frozenset(p): True for p in [(0, 1), (0, 2), (1, 2)]}
    prediction = conjecture_predict(ctx, nu, oracle, pairwise=pairs_true)
    assert prediction.applies and prediction.predicted == "irreducible"

    pairs_mixed = dict(pairs_true)
    pairs_mixed[frozenset((0, 2))] = False
    prediction = conjecture_predict(ctx, nu, oracle, pairwise=pairs_mixed)
    assert prediction.predicted == "reducible"


def test_predict_abstains_on_nontrivial_support_r_group(context):
    ctx = context("B", 2, ())
    triv = trivial_param(ctx.rs, ())
    minus_one = ctx.weyl.element_from_word([0, 1, 0, 1])
    assert not minus_one.is_identity()
    oracle = explicit_oracle(((ctx.weyl.identity, triv), (minus_one, triv)))
    prediction = conjecture_predict(
        ctx, triv, oracle, corank_all={r: True for r in range(len(ctx.rd.rays))}
    )
    assert not prediction.applies
    assert prediction.r_sigma_order == 2


def test_predict_regular_support_matches_decide(context):
    ctx = context("A", 2, ())
    triv = trivial_param(ctx.rs, ())
    rays = range(len(ctx.rd.rays))
    for flip in (None, 0):
        flags = {r: (r != flip) for r in rays}
        oracle = explicit_oracle(
            ((ctx.weyl.identity, triv),),
            mu_zero={r: flags[r] for r in rays},
            corank_irred=dict(flags),
        )
        nu = fw(ctx, ["1/3", "1/7"], [0, 0])  # regular exponent
        report = decide_gps(ctx, nu, oracle)
        prediction = conjecture_predict(ctx, nu, oracle, corank_all=dict(flags))
        assert prediction.applies
        assert prediction.predicted == report.verdict


@pytest.mark.parametrize("family", ["A", "B"])
def test_trivial_twist_oracle_is_explicit_oracle_on_all_of_wm(context, family):
    # with pairs omitted, every element of W_M carries the trivial twist
    for mask in range(7):
        theta = tuple(i for i in range(3) if mask >> i & 1)
        ctx = context(family, 3, theta)
        triv = trivial_param(ctx.rs, ctx.theta)
        flags = {r: True for r in ctx.rd.phi0}
        implicit = trivial_twist_oracle(ctx, mu_zero=flags, corank_irred=flags)
        explicit = explicit_oracle(
            ((w, triv) for w in ctx.wm.reps), mu_zero=flags, corank_irred=flags
        )
        assert (
            decide_gps(ctx, triv, implicit).to_dict()
            == decide_gps(ctx, triv, explicit).to_dict()
        ), theta


@pytest.mark.parametrize("family", ["B", "G"])
def test_ps_and_gps_share_the_report_core_on_the_torus(context, family):
    ctx = context(family, 2, ())
    coords = list(product(["-1", "0", "1"], ["0", "1/2", "1/3"]))
    for (q1, t1), (q2, t2) in product(coords, repeat=2):
        lam = fw(ctx, [q1, q2], [t1, t2])
        ps = decide_ps_unramified(ctx, lam).to_dict()
        gps = decide_gps(ctx, lam).to_dict()
        for key in ("values", "stabilizer", "relative", "orbit_note"):
            assert ps[key] == gps[key], (key, q1, t1, q2, t2)


# -- the checks of split_reflections, each made to fire ------------------------


def _quadratic_b2(context):
    """B2 at a quadratic character: stabilizer of order 4, reflection part
    and R-group of order 2 each."""
    ctx = context("B", 2, ())
    lam = fw(ctx, [0, 0], [0, "1/2"])
    fixed = frozenset(
        r for r in ctx.rd.phi0 if eval_on_coroot(ctx.rd, lam, ctx.rd.rays[r]).is_trivial()
    )
    stab = stabilizer(lam, ctx.weyl.elements)
    small, comp = r_group(ctx, stab, fixed)
    assert (len(stab), len(small), len(comp)) == (4, 2, 2)
    return ctx, stab, fixed, small, comp


def test_split_reflections_rejects_a_group_moving_its_rays(context):
    ctx = context("A", 2, ())
    with pytest.raises(InvariantViolation, match="does not permute the reflection-carrying rays"):
        split_reflections(ctx.rd, ctx.weyl, ctx.wm.reps, {0}, "test")


def test_split_reflections_rejects_an_escaping_reflection_subgroup(context):
    ctx = context("A", 2, ())
    with pytest.raises(InvariantViolation, match="reflection subgroup escaped the group"):
        r_group(ctx, (ctx.weyl.identity,), {0})


def test_split_reflections_rejects_intersecting_factors(context, monkeypatch):
    ctx, stab, fixed, _, _ = _quadratic_b2(context)
    monkeypatch.setattr(ctx.weyl, "closure", lambda gens: stab)
    with pytest.raises(InvariantViolation, match="factors intersect nontrivially"):
        r_group(ctx, stab, fixed)


def test_split_reflections_checks_the_order_product(context):
    ctx, stab, fixed, small, comp = _quadratic_b2(context)
    factors = {w.perm for w in small + comp}
    dropped = tuple(w for w in stab if w.perm in factors)
    assert len(dropped) == 3
    with pytest.raises(InvariantViolation, match=r"stabilizer splitting: \|G\| = 3 != 2 \* 2"):
        r_group(ctx, dropped, fixed)


# -- the laws of validate_pairs, each made to fire -----------------------------


def _word(ctx, *letters):
    return ctx.weyl.element_from_word([i - 1 for i in letters])


def _rejects(ctx, pairs, match):
    with pytest.raises(EngineRejection, match=match):
        explicit_oracle(pairs).validate_pairs(ctx)


def test_validate_pairs_rejects_an_element_outside_wm(context):
    ctx = context("A", 3, (1,))
    triv = trivial_param(ctx.rs, ctx.theta)
    _rejects(ctx, ((ctx.weyl.identity, triv), (_word(ctx, 1), triv)),
             r"element \[0\] is not in the relative Weyl group")


def test_validate_pairs_rejects_a_missing_identity(context):
    ctx = context("A", 2, ())
    triv = trivial_param(ctx.rs, ())
    quadratic = fw(ctx, [0, 0], ["1/2", "1/2"])
    for pairs in (((_word(ctx, 1), triv),), ((ctx.weyl.identity, quadratic),)):
        _rejects(ctx, pairs, r"must contain \(identity, trivial\)")


def test_validate_pairs_rejects_a_missing_inverse(context):
    ctx = context("A", 2, ())
    triv = trivial_param(ctx.rs, ())
    _rejects(ctx, ((ctx.weyl.identity, triv), (_word(ctx, 1, 2), triv)),
             r"not inverse-closed at \[0, 1\]")


def test_validate_pairs_rejects_an_open_product(context):
    ctx = context("A", 2, ())
    triv = trivial_param(ctx.rs, ())
    pairs = ((ctx.weyl.identity, triv), (_word(ctx, 1), triv), (_word(ctx, 2), triv))
    _rejects(ctx, pairs, "not closed under composition")


def test_validate_pairs_rejects_twists_that_break_closure(context):
    # the elements are all of W(A2), and every pair has its inverse in the
    # set: the reflection in the highest root fixes the quadratic twist
    # (1/2)(alpha_1 + alpha_2), so that pair is its own inverse.  Only the
    # twists break closure, e.g. (s1 s2, 0)(s1, 0) = (s1 s2 s1, 0)
    ctx = context("A", 2, ())
    triv = trivial_param(ctx.rs, ())
    chi = UnramifiedParam(ctx.rs, (), ["0", "0"], ["1/2", "1/2"])
    reflection = _word(ctx, 1, 2, 1)
    assert same_character(weyl_act(reflection, chi), chi)
    pairs = tuple(
        (w, chi if w == reflection else triv) for w in ctx.weyl.elements
    )
    _rejects(ctx, pairs, "not closed under composition")
    explicit_oracle(tuple((w, triv) for w in ctx.weyl.elements)).validate_pairs(ctx)


def test_validate_pairs_composes_on_generators_only(context, monkeypatch):
    # all of W_M for F4, theta = {1}: |S| = 48, so at most 48 * 5 products
    ctx = context("F", 4, (0,))
    triv = trivial_param(ctx.rs, ctx.theta)
    size = len(ctx.wm.reps)
    assert size == 48
    calls = []
    mult = ctx.weyl.mult
    monkeypatch.setattr(ctx.weyl, "mult", lambda a, b: calls.append(1) or mult(a, b))
    explicit_oracle(tuple((w, triv) for w in ctx.wm.reps)).validate_pairs(ctx)
    assert size <= len(calls) <= size * int(log2(size))


def _exhaustive_laws(ctx, pairs) -> bool:
    """Reference for validate_pairs: every law checked on every pair and on
    all |S|^2 products, each membership by a linear scan."""
    rs, weyl = ctx.rs, ctx.weyl

    def has(target, twist):
        return any(w.perm == target.perm and same_character(chi, twist) for w, chi in pairs)

    def neg(chi):
        return UnramifiedParam(rs, chi.theta, [-x for x in chi.q_part], [-x for x in chi.t_part])

    reps = {w.perm for w in ctx.wm.reps}
    if any(w.perm not in reps for w, _ in pairs):
        return False
    if not has(weyl.identity, trivial_param(rs, ctx.theta)):
        return False
    for w1, chi1 in pairs:
        inv = weyl.inv(w1)
        if not has(inv, neg(weyl_act(inv, chi1))):
            return False
        for w2, chi2 in pairs:
            if not has(weyl.mult(w1, w2), param_add(chi1, weyl_act(w1, chi2))):
                return False
    return True


CLOSURE_LEVIS = [("A", 2, ()), ("B", 2, ()), ("G", 2, ()), ("B", 3, (2,)), ("A", 3, (1,))]
TORSION = ["0", "0", "1/2", "1/3", "1/4"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_validate_pairs_agrees_with_the_exhaustive_laws(context, data):
    ctx = context(*data.draw(st.sampled_from(CLOSURE_LEVIS)))
    reps = ctx.wm.reps

    def character(q_values):
        def coords(values):
            return [
                "0" if i in ctx.theta else data.draw(st.sampled_from(values))
                for i in range(ctx.rs.rank)
            ]

        return fw(ctx, coords(q_values), coords(TORSION))

    gens = data.draw(st.lists(st.sampled_from(reps), min_size=1, max_size=2))
    # twists by the cocycle w.sigma - sigma make a twisted subgroup
    sigma = character(["0", "0", "1", "-1/2"])
    minus_sigma = UnramifiedParam(
        ctx.rs, ctx.theta, [-x for x in sigma.q_part], [-x for x in sigma.t_part]
    )

    def cocycle(w):
        return param_add(weyl_act(w, sigma), minus_sigma)

    pairs = [(w, cocycle(w)) for w in ctx.weyl.closure(gens)]
    mutation = data.draw(st.sampled_from(["none", "drop", "add", "retwist", "duplicate"]))
    k = data.draw(st.sampled_from(range(len(pairs))))
    if mutation == "drop":
        pairs.pop(k)
    elif mutation == "add":
        w = data.draw(st.sampled_from(reps))
        twist = data.draw(st.sampled_from(["cocycle", "other"]))
        pairs.append((w, cocycle(w) if twist == "cocycle" else character(["0"])))
    elif mutation == "retwist":
        w, chi = pairs[k]
        pairs[k] = (w, param_add(chi, character(["0", "1"])))
    elif mutation == "duplicate":
        pairs.append(pairs[k])
    pairs = data.draw(st.permutations(pairs))

    expected = _exhaustive_laws(ctx, pairs)
    try:
        explicit_oracle(pairs).validate_pairs(ctx)
        accepted = True
    except EngineRejection:
        accepted = False
    assert accepted == expected
