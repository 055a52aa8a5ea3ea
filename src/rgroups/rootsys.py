"""Finite crystallographic root systems and their Weyl groups.

All arithmetic is exact (ints and Fractions).  Roots are integer vectors in
the simple-root basis; Weyl elements are stored as permutations of the
signed root list, which makes equality, length and fixed-point questions
cheap and free of any word-problem machinery.

Conventions, fixed once here and inherited by every consumer:

* Cartan matrix entries are ``A[i][j] = <alpha_j, alpha_i^vee>`` with
  Bourbaki node numbering, so the G2 matrix reads [[2,-1],[-3,2]].
* The invariant form is the symmetrization of A normalized so that short
  roots have the minimal squared length.
* A Weyl element's canonical word is the lexicographically least reduced
  word in the simple reflections.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from ._rat import invert, mat_vec, vec_dot
from .errors import CapExceeded, EngineRejection, InvariantViolation

DEFAULT_GROUP_CAP = 10**6
DEFAULT_ROOT_CAP = 10**4

_FAMILIES = tuple("ABCDEFG")  # a string would also admit "" and "AB"


class CartanDatum:
    """A finite-type Cartan matrix together with its family label."""

    __slots__ = ("family", "rank", "matrix")

    def __init__(self, family: str, rank: int, matrix):
        self.family = family
        self.rank = rank
        self.matrix = matrix

    def __repr__(self):
        return f"CartanDatum({self.family}{self.rank})"

    def __eq__(self, other):
        return (
            isinstance(other, CartanDatum)
            and self.family == other.family
            and self.rank == other.rank
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.family, self.rank, self.matrix))


def _validate_family_rank(family: str, rank: int) -> None:
    if family not in _FAMILIES:
        raise EngineRejection(f"unknown family {family!r}, expected one of A-G")
    if not isinstance(rank, int) or rank < 1:
        raise EngineRejection(f"rank must be a positive integer, got {rank!r}")
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}[family]
    if rank < minimum:
        raise EngineRejection(f"{family}{rank}: rank below family minimum {minimum}")
    if family == "E" and rank > 8:
        raise EngineRejection(f"E{rank} is not a finite type")
    if family == "F" and rank != 4:
        raise EngineRejection("family F only exists at rank 4")
    if family == "G" and rank != 2:
        raise EngineRejection("family G only exists at rank 2")


def build_cartan(family: str, rank: int) -> CartanDatum:
    """Standard Cartan matrix for a finite family, A[i][j] = <alpha_j, alpha_i^vee>."""
    _validate_family_rank(family, rank)
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2

    def edge(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if family in ("A", "B", "C", "F"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if family == "B":
            a[rank - 1][rank - 2] = -2
        elif family == "C":
            a[rank - 2][rank - 1] = -2
        elif family == "F":
            a[2][1] = -2
    elif family == "D":
        for i in range(rank - 3):
            edge(i, i + 1)
        edge(rank - 3, rank - 2)
        edge(rank - 3, rank - 1)
    elif family == "E":
        # Bourbaki numbering: chain 1-3-4-5-6(-7-8) with node 2 hanging off node 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif family == "G":
        a[0][1] = -1
        a[1][0] = -3
    return CartanDatum(family, rank, tuple(tuple(row) for row in a))


def weyl_order(family: str, rank: int) -> int:
    """Closed-form order of the Weyl group."""
    _validate_family_rank(family, rank)
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if family == "F":
        return 1152
    return 12  # G2


def _symmetrizers(cartan: CartanDatum) -> tuple:
    """Integers d_i with d_i * A[i][j] = d_j * A[j][i]; min normalized to 1.
    Then (alpha_i, alpha_j) = d_i * A[i][j]."""
    n = cartan.rank
    a = cartan.matrix
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * a[i][j] / a[j][i]
                    stack.append(j)
    low = min(d)
    d = [x / low for x in d]
    if any(x.denominator != 1 for x in d):
        raise InvariantViolation(f"non-integral symmetrizers for {cartan}: {d}")
    return tuple(int(x) for x in d)


def _reflect_coords(a, i, coords):
    """Apply the i-th simple reflection to simple-root coordinates."""
    pairing = sum(a[i][j] * coords[j] for j in range(len(coords)))
    out = list(coords)
    out[i] -= pairing
    return tuple(out)


class RootSystem:
    """Root set, coroots and invariant form generated from a Cartan datum.

    ``roots`` lists all 2N roots, the positives first; the negative of the
    root at index ``i`` sits at index ``i + n_pos``.
    """

    def __init__(self, cartan: CartanDatum, max_roots: int = DEFAULT_ROOT_CAP):
        self.cartan = cartan
        self.rank = cartan.rank
        self.symmetrizer = _symmetrizers(cartan)
        a = cartan.matrix
        # (alpha_i, alpha_j) = d_i A_ij, a symmetric positive integer matrix.
        self.form = tuple(
            tuple(self.symmetrizer[i] * a[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )

        simples = [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]
        known = set(simples)
        frontier = list(simples)
        while frontier:
            fresh = []
            for coords in frontier:
                for i in range(self.rank):
                    image = _reflect_coords(a, i, coords)
                    if image not in known:
                        known.add(image)
                        fresh.append(image)
                if len(known) > 2 * max_roots:
                    raise CapExceeded(
                        f"root closure for {cartan} exceeded {max_roots} roots"
                    )
            frontier = fresh

        positives = []
        for coords in known:
            pos = all(c >= 0 for c in coords)
            neg = all(c <= 0 for c in coords)
            if not (pos or neg):
                raise InvariantViolation(f"mixed-sign root {coords} in {cartan}")
            if pos:
                positives.append(coords)
        rest = sorted(
            (c for c in positives if sum(c) > 1), key=lambda c: (sum(c), c)
        )
        positives = simples + rest
        self.n_pos = len(positives)
        self.roots = tuple(positives) + tuple(
            tuple(-x for x in c) for c in positives
        )
        self.root_index = {c: i for i, c in enumerate(self.roots)}
        for c in positives:
            g = 0
            for x in c:
                g = gcd(g, abs(x))
            if g != 1:
                raise InvariantViolation(f"non-primitive root coordinates {c}")

        # Coroot of each root as a vector in a_T*: 2*beta/(beta,beta).
        self._coroot_vec = tuple(
            tuple(Fraction(2 * x, self._norm_int(c)) for x in c) for c in self.roots
        )
        # Coroot coordinates over the simple coroot basis (always integral).
        coroot_rows = tuple(self._coroot_vec[i] for i in range(self.rank))
        basis_matrix = tuple(
            tuple(coroot_rows[j][k] for j in range(self.rank)) for k in range(self.rank)
        )
        inv_basis = invert(basis_matrix)
        self.coroot_coords = []
        for idx in range(len(self.roots)):
            coords = mat_vec(inv_basis, self._coroot_vec[idx])
            if any(x.denominator != 1 for x in coords):
                raise InvariantViolation("coroot outside the coroot lattice")
            self.coroot_coords.append(tuple(int(x) for x in coords))
        self.coroot_coords = tuple(self.coroot_coords)

        self.simple_perms = tuple(self._simple_perm(i) for i in range(self.rank))
        self._identity_perm = tuple(range(len(self.roots)))
        for i in range(self.rank):
            if self.pairing(self.roots[i], self.roots[i]) != 2:
                raise InvariantViolation("coroot normalization broke <a,a^vee> = 2")

    def _norm_int(self, coords) -> int:
        value = vec_dot(mat_vec(self.form, coords), coords)
        return int(value)

    def _simple_perm(self, i):
        a = self.cartan.matrix
        perm = []
        for coords in self.roots:
            perm.append(self.root_index[_reflect_coords(a, i, coords)])
        return tuple(perm)

    # -- basic queries ---------------------------------------------------

    def is_root(self, coords) -> bool:
        return tuple(coords) in self.root_index

    def negative_of(self, idx: int) -> int:
        n = self.n_pos
        return idx + n if idx < n else idx - n

    def form_dot(self, u, v) -> Fraction:
        return Fraction(vec_dot(mat_vec(self.form, u), v))

    def pair_vec(self, v, alpha_coords) -> Fraction:
        """<v, alpha^vee> = 2 (v, alpha) / (alpha, alpha) for any vector v."""
        return 2 * self.form_dot(v, alpha_coords) / self.form_dot(alpha_coords, alpha_coords)

    def pairing(self, beta, alpha) -> int:
        """<beta, alpha^vee> for two roots; rejects non-roots."""
        beta, alpha = tuple(beta), tuple(alpha)
        if not self.is_root(beta):
            raise EngineRejection(f"{beta} is not a root of {self.cartan}")
        if not self.is_root(alpha):
            raise EngineRejection(f"{alpha} is not a root of {self.cartan}")
        value = self.pair_vec(beta, alpha)
        if value.denominator != 1:
            raise InvariantViolation("non-integral root pairing")
        return int(value)

def build_root_system(cartan: CartanDatum, max_roots: int = DEFAULT_ROOT_CAP) -> RootSystem:
    return RootSystem(cartan, max_roots=max_roots)


# -- Weyl elements and groups ---------------------------------------------


def _compose(p, q):
    """Permutation 'p after q'."""
    return tuple(p[x] for x in q)


def _invert_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def canonical_word(rs: RootSystem, perm) -> tuple:
    """Lexicographically least reduced word for the element with this
    permutation, built greedily: always strip the smallest left descent."""
    word = []
    inv = _invert_perm(perm)
    n = rs.n_pos
    current = perm
    while True:
        descent = next((i for i in range(rs.rank) if inv[i] >= n), None)
        if descent is None:
            break
        word.append(descent)
        s = rs.simple_perms[descent]
        current = _compose(s, current)
        inv = _compose(inv, s)
    if current != rs._identity_perm:
        raise InvariantViolation("canonical word extraction did not terminate at 1")
    return tuple(word)


class WeylElement:
    """A Weyl group element realized as a permutation of the signed roots."""

    __slots__ = ("rs", "perm", "_word")

    def __init__(self, rs: RootSystem, perm, word=None):
        self.rs = rs
        self.perm = perm
        self._word = word

    @property
    def word(self) -> tuple:
        if self._word is None:
            self._word = canonical_word(self.rs, self.perm)
        return self._word

    def length(self) -> int:
        n = self.rs.n_pos
        return sum(1 for i in range(n) if self.perm[i] >= n)

    def is_identity(self) -> bool:
        return self.perm == self.rs._identity_perm

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rs, _compose(self.perm, other.perm))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rs, _invert_perm(self.perm))

    def act(self, v):
        """Linear action on a rational vector in simple-root coordinates."""
        roots = self.rs.roots
        out = [Fraction(0)] * self.rs.rank
        for i, c in enumerate(v):
            if c == 0:
                continue
            image = roots[self.perm[i]]
            for k in range(self.rs.rank):
                if image[k]:
                    out[k] += c * image[k]
        return tuple(out)

    def order(self) -> int:
        power = self.perm
        identity = self.rs._identity_perm
        k = 1
        while power != identity:
            power = _compose(power, self.perm)
            k += 1
            if k > 2 * len(identity):
                raise InvariantViolation("element order runaway")
        return k

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"WeylElement(word={list(w + 1 for w in self.word)})"


class WeylGroup:
    """Fully enumerated Weyl group, elements ordered by (length, word)."""

    def __init__(self, rs: RootSystem, elements, generators):
        self.rs = rs
        self.elements = elements
        self.generators = generators
        self.index = {w.perm: i for i, w in enumerate(elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def by_perm(self, perm) -> WeylElement:
        try:
            return self.elements[self.index[perm]]
        except KeyError:
            raise InvariantViolation("permutation is not a group element") from None

    def mult(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.by_perm(_compose(a.perm, b.perm))

    def inv(self, a: WeylElement) -> WeylElement:
        return self.by_perm(_invert_perm(a.perm))

    def element_from_word(self, word) -> WeylElement:
        perm = self.rs._identity_perm
        for i in word:
            if not 0 <= i < self.rs.rank:
                raise EngineRejection(f"word letter {i + 1} out of range")
            perm = _compose(perm, self.rs.simple_perms[i])
        return self.by_perm(perm)

    def closure(self, gens) -> tuple:
        """Subgroup generated by ``gens``, sorted by (length, word)."""
        seen = {self.identity.perm}
        frontier = [self.identity.perm]
        gen_perms = [g.perm for g in gens]
        while frontier:
            fresh = []
            for p in frontier:
                for g in gen_perms:
                    q = _compose(p, g)
                    if q not in seen:
                        seen.add(q)
                        fresh.append(q)
            frontier = fresh
        # the elements are already enumerated in (length, word) order
        return tuple(self.elements[i] for i in sorted(map(self.index.__getitem__, seen)))


def generate_weyl(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    """Enumerate the full Weyl group by breadth-first closure over the
    simple reflections.  Refuses upfront when the closed-form order exceeds
    the cap, and guards the closure itself as a backstop.

    The closure runs level by level in the length, so each new element q
    finds the canonical word of s_i q one level down, with i the smallest
    left descent of q: word(q) = (i,) + word(s_i q), the recursion that
    :func:`canonical_word` unrolls."""
    expected = weyl_order(rs.cartan.family, rs.cartan.rank)
    if expected > cap:
        raise CapExceeded(
            f"|W({rs.cartan.family}{rs.cartan.rank})| = {expected} exceeds cap {cap}"
        )
    identity = rs._identity_perm
    n = rs.n_pos
    simple_perms = rs.simple_perms
    words = {identity: ()}
    frontier = [identity]
    depth = 0
    while frontier:
        fresh = []
        for p in frontier:
            for s in simple_perms:
                q = _compose(p, s)
                if q in words:
                    continue
                descent = next((i for i in range(rs.rank) if q.index(i) >= n), None)
                shorter = None if descent is None else words.get(
                    _compose(simple_perms[descent], q)
                )
                if shorter is None or len(shorter) != depth:
                    raise InvariantViolation(
                        f"Weyl closure found no canonical word at length {depth} "
                        "below a new element"
                    )
                words[q] = (descent,) + shorter
                fresh.append(q)
                if len(words) > cap:
                    raise CapExceeded(
                        f"Weyl closure exceeded cap {cap} (partial size {len(words)})"
                    )
        frontier = fresh
        depth += 1
    if len(words) != expected:
        raise InvariantViolation(
            f"enumerated {len(words)} elements, closed form says {expected}"
        )
    elements = [WeylElement(rs, p, word) for p, word in words.items()]
    elements.sort(key=lambda w: (len(w.word), w.word))
    group = WeylGroup(rs, tuple(elements), None)
    group.generators = tuple(group.by_perm(s) for s in rs.simple_perms)
    return group


def longest_element(rs: RootSystem, theta) -> WeylElement:
    """Longest element of the parabolic subgroup generated by the simple
    reflections indexed by ``theta``; for the full index set this is the
    longest element of W."""
    theta = sorted(set(theta))
    for i in theta:
        if not 0 <= i < rs.rank:
            raise EngineRejection(f"simple root index {i + 1} out of range")
    n = rs.n_pos
    perm = rs._identity_perm
    while True:
        ascent = next((i for i in theta if perm[i] < n), None)
        if ascent is None:
            break
        perm = _compose(perm, rs.simple_perms[ascent])
    return WeylElement(rs, perm)
