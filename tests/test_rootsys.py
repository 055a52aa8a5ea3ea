from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgroups import (
    EngineRejection,
    CapExceeded,
    InvariantViolation,
    build_cartan,
    build_root_system,
    generate_weyl,
    longest_element,
    weyl_order,
)
from rgroups.rootsys import canonical_word


def independent_root_closure(cartan):
    """Second, set-based enumerator used as the oracle for root counts."""
    rank = cartan.rank
    a = cartan.matrix
    roots = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    while True:
        new = set()
        for beta in roots:
            for i in range(rank):
                pairing = sum(a[i][j] * beta[j] for j in range(rank))
                image = list(beta)
                image[i] -= pairing
                image = tuple(image)
                if image not in roots:
                    new.add(image)
        if not new:
            break
        roots |= new
    positives = [r for r in roots if all(c >= 0 for c in r)]
    return len(positives)


def test_cartan_a2():
    assert build_cartan("A", 2).matrix == ((2, -1), (-1, 2))


def test_cartan_g2():
    assert build_cartan("G", 2).matrix == ((2, -1), (-3, 2))


def test_cartan_rank_below_minimum():
    with pytest.raises(EngineRejection):
        build_cartan("B", 1)
    with pytest.raises(EngineRejection):
        build_cartan("D", 2)
    with pytest.raises(EngineRejection):
        build_cartan("E", 9)
    with pytest.raises(EngineRejection):
        build_cartan("Z", 2)


@pytest.mark.parametrize("family", ["", "AB", "b"])
def test_cartan_rejects_a_family_that_is_not_one_letter(family):
    with pytest.raises(EngineRejection, match="unknown family"):
        build_cartan(family, 2)


@pytest.mark.parametrize(
    "family,rank,expected",
    [("A", 2, 3), ("G", 2, 6), ("B", 3, 9)],
)
def test_positive_root_counts(family, rank, expected):
    cartan = build_cartan(family, rank)
    rs = build_root_system(cartan)
    assert rs.n_pos == expected
    assert independent_root_closure(cartan) == expected


def test_pairing_normalization(system):
    rs, _ = system("B", 3)
    for i in range(rs.n_pos):
        assert rs.pairing(rs.roots[i], rs.roots[i]) == 2


def test_pairing_examples(system):
    rs, _ = system("A", 2)
    assert rs.pairing(rs.roots[0], rs.roots[1]) == -1
    g2, _ = system("G", 2)
    assert g2.pairing(g2.roots[0], g2.roots[1]) == -3


def test_pairing_rejects_non_roots(system):
    rs, _ = system("A", 2)
    with pytest.raises(EngineRejection):
        rs.pairing((2, 0), rs.roots[0])


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 3), ("G", 2), ("F", 4)],
)
def test_weyl_group_orders(system, family, rank):
    _, weyl = system(family, rank)
    assert len(weyl) == weyl_order(family, rank)


def test_generate_weyl_cap(system):
    rs, _ = system("A", 3)
    with pytest.raises(CapExceeded):
        generate_weyl(rs, cap=5)


def test_enumeration_order_a2(system):
    _, weyl = system("A", 2)
    assert [w.word for w in weyl] == [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]


def test_length_equals_inversions(system):
    rs, weyl = system("B", 3)
    for w in weyl:
        inversions = sum(1 for i in range(rs.n_pos) if w.perm[i] >= rs.n_pos)
        assert len(w.word) == inversions == w.length()


def test_canonical_word_uniqueness(system):
    rs, weyl = system("B", 3)
    seen = {}
    for w in weyl:
        assert w.word not in seen
        seen[w.word] = w.perm
    # words determine permutations and vice versa
    assert len(seen) == len(weyl)


def test_longest_element_single_root(system):
    rs, weyl = system("B", 3)
    for i in range(rs.rank):
        w = longest_element(rs, [i])
        assert w.perm == rs.simple_perms[i]


def test_longest_element_a2(system):
    rs, _ = system("A", 2)
    w0 = longest_element(rs, [0, 1])
    assert w0.length() == rs.n_pos == 3


def test_longest_element_b2_is_minus_one(system):
    rs, _ = system("B", 2)
    w0 = longest_element(rs, [0, 1])
    for i in range(rs.rank):
        coords = [Fraction(0)] * rs.rank
        coords[i] = Fraction(1)
        assert w0.act(tuple(coords)) == tuple(-c for c in coords)


def test_longest_element_involution_and_negates(system):
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        rs, _ = system(family, rank)
        w0 = longest_element(rs, range(rs.rank))
        assert (w0 * w0).is_identity()
        for i in range(rs.n_pos):
            assert w0.perm[i] >= rs.n_pos


def test_act_identity_and_reflection(system):
    rs, weyl = system("A", 2)
    v = (Fraction(3, 2), Fraction(-1, 3))
    assert weyl.identity.act(v) == v
    s1 = weyl.generators[0]
    alpha1 = tuple(Fraction(c) for c in rs.roots[0])
    assert s1.act(alpha1) == tuple(-c for c in alpha1)
    alpha2 = tuple(Fraction(c) for c in rs.roots[1])
    assert s1.act(alpha2) == (Fraction(1), Fraction(1))  # alpha1 + alpha2


def test_pairing_weyl_invariance(system):
    for family, rank in [("A", 2), ("B", 2), ("B", 3)]:
        rs, weyl = system(family, rank)
        for w in weyl:
            for b in range(rs.n_pos):
                for a in range(rs.n_pos):
                    lhs = rs.pairing(rs.roots[w.perm[b]], rs.roots[w.perm[a]])
                    assert lhs == rs.pairing(rs.roots[b], rs.roots[a])


def test_roots_stay_roots_under_action(system):
    rs, weyl = system("G", 2)
    for w in weyl:
        for i, coords in enumerate(rs.roots):
            image = w.act(tuple(Fraction(c) for c in coords))
            assert tuple(int(x) for x in image) == rs.roots[w.perm[i]]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=10))
def test_word_roundtrip_b3(word):
    rs = build_root_system(build_cartan("B", 3))
    weyl = generate_weyl(rs)
    element = weyl.element_from_word(word)
    rebuilt = weyl.element_from_word(element.word)
    assert rebuilt == element
    assert len(element.word) <= len(word)
    assert canonical_word(rs, element.perm) == element.word


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1), max_size=6),
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    ),
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    ),
)
def test_act_is_linear_a2(word, u, v):
    rs = build_root_system(build_cartan("A", 2))
    weyl = generate_weyl(rs)
    w = weyl.element_from_word(word)
    lhs = w.act(tuple(a + b for a, b in zip(u, v)))
    rhs = tuple(a + b for a, b in zip(w.act(u), w.act(v)))
    assert lhs == rhs


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("B", 5),
     ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2)],
)
def test_enumeration_words_are_canonical(system, family, rank):
    rs, weyl = system(family, rank)
    for w in weyl:
        assert w.word == canonical_word(rs, w.perm)


def test_enumeration_word_guard_fires():
    rs = build_root_system(build_cartan("A", 2))
    rs.n_pos = 0  # every root now counts as negative: no descent walks down
    with pytest.raises(InvariantViolation, match="no canonical word"):
        generate_weyl(rs)


def test_enumeration_cap_backstop_fires(monkeypatch):
    rs = build_root_system(build_cartan("A", 3))
    monkeypatch.setattr("rgroups.rootsys.weyl_order", lambda family, rank: 5)
    with pytest.raises(CapExceeded, match="partial size 6"):
        generate_weyl(rs, cap=5)
