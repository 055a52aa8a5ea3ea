"""Relative root systems and relative Weyl groups of standard Levi subsets.

For a subset ``theta`` of the simple roots this module computes

* the reduced relative roots (one primitive direction per ray of projections
  onto the orthogonal complement of span(theta)),
* the relative Weyl group, realized as the subgroup of W whose elements map
  theta onto itself (these are exactly the minimal-length coset
  representatives, so composition needs no coset arithmetic),
* the subset of relative roots whose reflections are realized inside the
  relative Weyl group, and
* the semidirect splitting of the relative Weyl group into the reflection
  subgroup and its positivity-preserving complement.

A practical fact used throughout: orthogonal projection onto the complement
of span(theta) changes only the theta-coordinates of a vector, so rays of
projections are classified by the primitive form of the coordinates outside
theta, and relative positivity is just sign-coherence of those coordinates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from ._rat import primitive, solve
from .errors import EngineRejection, InvariantViolation
from .rootsys import (
    RootSystem,
    WeylElement,
    WeylGroup,
    _compose,
    _invert_perm,
    longest_element,
)


@dataclass(frozen=True)
class LeviDatum:
    rs: RootSystem
    theta: frozenset

    def __post_init__(self):
        for i in self.theta:
            if not 0 <= i < self.rs.rank:
                raise EngineRejection(f"Levi index {i + 1} out of range for rank {self.rs.rank}")


@dataclass(frozen=True)
class RelativeRoot:
    """A reduced relative root (positive representative of its ray)."""

    index: int
    direction: tuple  # primitive integer vector in a_T* coordinates
    restriction: tuple  # primitive coordinates over the non-theta simple indices
    fiber: tuple  # indices of the positive absolute roots projecting onto the ray


class RelativeData:
    """Relative roots of a Levi subset, plus the reflection bookkeeping
    filled in by :func:`reflections_in_WM`.  Not mutated once the analysis
    pipeline has run."""

    def __init__(self, levi: LeviDatum):
        self.levi = levi
        self.rs = levi.rs
        self.theta = levi.theta
        self.free = tuple(i for i in range(self.rs.rank) if i not in self.theta)
        self.levi_roots = frozenset(
            i
            for i, coords in enumerate(self.rs.roots)
            if all(coords[j] == 0 for j in self.free)
        )
        self.levi_positive = tuple(i for i in sorted(self.levi_roots) if i < self.rs.n_pos)
        self.rays: tuple = ()
        self.ray_by_restriction: dict = {}
        self.phi0: frozenset = frozenset()
        self.reflection_of: dict = {}
        self.delta0: tuple = ()
        self._build_rays()

    # -- construction ------------------------------------------------------

    def _project(self, coords):
        """Orthogonal projection onto the complement of span(theta)."""
        theta = sorted(self.theta)
        if not theta:
            return tuple(Fraction(c) for c in coords)
        gram = [
            [self.rs.form_dot(self.rs.roots[i], self.rs.roots[j]) for j in theta]
            for i in theta
        ]
        rhs = [self.rs.form_dot(coords, self.rs.roots[j]) for j in theta]
        x = solve(gram, rhs)
        out = [Fraction(c) for c in coords]
        for coeff, j in zip(x, theta):
            root = self.rs.roots[j]
            for k in range(self.rs.rank):
                out[k] -= coeff * root[k]
        return tuple(out)

    def restrict(self, coords):
        return tuple(coords[j] for j in self.free)

    def _build_rays(self):
        """Bucket the positive non-Levi roots by the ray of their
        restriction, and record for every root the signed 1-based ray it
        lies on (0 for Levi roots): the negative of a root lies on the
        negated ray."""
        n_pos = self.rs.n_pos
        buckets = {}
        for idx in range(n_pos):
            if idx in self.levi_roots:
                continue
            rest = self.restrict(self.rs.roots[idx])
            key = primitive(rest)
            buckets.setdefault(key, []).append(idx)
        rays = []
        ray_of_root = [0] * len(self.rs.roots)
        for key in sorted(buckets, key=lambda k: (sum(k), k)):
            fiber = tuple(buckets[key])
            direction = primitive(self._project(self.rs.roots[fiber[0]]))
            rays.append(
                RelativeRoot(
                    index=len(rays), direction=direction, restriction=key, fiber=fiber
                )
            )
            for idx in fiber:
                ray_of_root[idx] = len(rays)
                ray_of_root[idx + n_pos] = -len(rays)
        self.rays = tuple(rays)
        self.ray_by_restriction = {r.restriction: r.index for r in self.rays}
        self._ray_of_root = tuple(ray_of_root)
        self._ray_heads = tuple(r.fiber[0] for r in self.rays)

    # -- ray actions ---------------------------------------------------------

    def rayperm(self, w: WeylElement) -> tuple:
        """Action of a Levi-normalizing element on the rays, as signed
        1-based indices: ray i maps to ±(j+1)."""
        table, perm = self._ray_of_root, w.perm
        # From a list: tuple() of a generator starts at 10 slots and resizes,
        # which parks short tuples on CPython's free lists and grows peak RSS.
        out = tuple([table[perm[head]] for head in self._ray_heads])
        if 0 in out:
            raise InvariantViolation(
                f"element {list(w.word)} does not permute the relative roots"
            )
        return out

    def relative_coroot(self, ray: RelativeRoot):
        d = ray.direction
        norm = self.rs.form_dot(d, d)
        return tuple(Fraction(2 * c, 1) / norm for c in d)

    def simple_rays(self, subset) -> tuple:
        """Rays of ``subset`` (a set of ray indices carrying reflections)
        whose reflection permutes the remaining positive rays of the subset.
        This is the base of the corresponding positive system and is
        independent of how each ray was scaled."""
        subset = sorted(subset)
        out = []
        for candidate in subset:
            refl = self.reflection_of.get(candidate)
            if refl is None:
                raise InvariantViolation("simple_rays needs reflections for every ray")
            perm = self.rayperm(refl)
            ok = True
            for other in subset:
                if other == candidate:
                    continue
                if perm[other] < 0 or perm[other] - 1 not in subset:
                    ok = False
                    break
            if ok:
                out.append(candidate)
        return tuple(out)


@dataclass(frozen=True)
class RelativeWeylGroup:
    levi: LeviDatum
    reps: tuple  # Weyl elements, sorted by (length, word)

    def __len__(self):
        return len(self.reps)


def relative_roots(levi: LeviDatum) -> RelativeData:
    return RelativeData(levi)


def relative_weyl_group(rd: RelativeData, weyl: WeylGroup) -> RelativeWeylGroup:
    """Elements mapping theta onto itself; equivalently the minimal-length
    representatives of N_W(W_theta)/W_theta, which form an honest subgroup."""
    theta = rd.theta
    reps = [w for w in weyl if all(w.perm[i] in theta for i in theta)]
    return RelativeWeylGroup(levi=rd.levi, reps=tuple(reps))


def reflections_in_WM(rd: RelativeData, wm: RelativeWeylGroup) -> dict:
    """Scan the relative Weyl group for elements acting as reflections on
    the complement of span(theta); record which rays they negate.

    Also asserts that the action on that complement is faithful: a
    nontrivial element acting trivially would silently corrupt every
    downstream stabilizer computation, so it is promoted to a hard error.
    """
    free = rd.free
    d = len(free)
    rs = rd.rs
    found = {}
    for w in wm.reps:
        columns = [rs.roots[w.perm[j]] for j in free]
        matrix = tuple(tuple(col[k] for col in columns) for k in free)
        is_id = all(
            matrix[r][c] == (1 if r == c else 0) for r in range(d) for c in range(d)
        )
        if is_id:
            if not w.is_identity():
                raise InvariantViolation(
                    f"relative action is unfaithful: {list(w.word)} acts trivially"
                )
            continue
        trace = sum(matrix[k][k] for k in range(d))
        if trace != d - 2:
            continue
        square_ok = all(
            sum(matrix[r][k] * matrix[k][c] for k in range(d)) == (1 if r == c else 0)
            for r in range(d)
            for c in range(d)
        )
        if not square_ok:
            continue
        perm = rd.rayperm(w)
        negated = [i for i in range(len(rd.rays)) if perm[i] == -(i + 1)]
        if len(negated) > 1:
            raise InvariantViolation("a reflection negated two independent rays")
        if negated:
            ray = negated[0]
            if ray in found:
                raise InvariantViolation("two distinct elements reflect the same ray")
            found[ray] = w
    rd.phi0 = frozenset(found)
    rd.reflection_of = dict(found)
    rd.delta0 = rd.simple_rays(rd.phi0)
    return found


def relative_reflection_simple(rd: RelativeData, ray: RelativeRoot) -> WeylElement:
    """The product of the two longest elements attached to a relative
    simple root: longest element of the co-rank-one Levi above theta times
    the longest element of the theta-Levi itself.  Only defined when the
    ray's fiber contains a simple root."""
    simple_fiber = [i for i in ray.fiber if i < rd.rs.rank]
    if not simple_fiber:
        raise EngineRejection(
            f"ray {list(ray.direction)} is not relative simple; "
            "general rays get reflections from the group scan only"
        )
    theta_alpha = sorted(set(rd.theta) | set(simple_fiber))
    w_long_alpha = longest_element(rd.rs, theta_alpha)
    w_long_theta = longest_element(rd.rs, rd.theta)
    return w_long_alpha * w_long_theta


@dataclass
class WMDecomposition:
    """Semidirect splitting of the relative Weyl group: the subgroup
    generated by realized relative reflections, and the complement of
    elements keeping the reflection-carrying positive rays positive."""

    small: tuple
    complement: tuple


def split_reflections(rd: RelativeData, weyl: WeylGroup, group, rays, label: str):
    """Split ``group`` as W(rays) x| comp, where comp keeps every ray of
    ``rays`` positive.  ``group`` must permute ``rays`` and contain their
    reflections, so ``rays`` is reflection-closed, a root subsystem, and its
    base ``rd.simple_rays(rays)`` generates W(rays).

    Checked outright: ``group`` permutes ``rays``, small <= group,
    small & comp = {1} and |group| = |small|*|comp|.  Under these,
    (a, b) -> ab is injective from small x comp to group (ab = a'b' forces
    a'^-1 a = b' b^-1 in small & comp) and, by counting, onto: every element
    factors uniquely.
    """
    positive = frozenset(r + 1 for r in rays)
    signed = positive | frozenset(-r for r in positive)
    comp = []
    for w in group:
        image = rd.rayperm(w).__getitem__
        if positive.issuperset(map(image, rays)):
            comp.append(w)
        elif not signed.issuperset(map(image, rays)):
            raise InvariantViolation(
                f"{label}: {list(w.word)} does not permute the reflection-carrying rays"
            )
    comp = tuple(comp)
    small = weyl.closure([rd.reflection_of[r] for r in rd.simple_rays(rays)])
    small_set = frozenset(w.perm for w in small)
    if not small_set <= frozenset(w.perm for w in group):
        raise InvariantViolation(f"{label}: reflection subgroup escaped the group")
    if small_set.intersection(w.perm for w in comp) != {weyl.identity.perm}:
        raise InvariantViolation(f"{label}: factors intersect nontrivially")
    if len(group) != len(small) * len(comp):
        raise InvariantViolation(
            f"{label}: |G| = {len(group)} != {len(small)} * {len(comp)}"
        )
    return small, comp


def decompose_WM(rd: RelativeData, wm: RelativeWeylGroup, weyl: WeylGroup) -> WMDecomposition:
    """W_M = W0 x| W1 over the reflection-carrying rays phi0."""
    small, complement = split_reflections(rd, weyl, wm.reps, rd.phi0, "W_M = W0 x W1")
    return WMDecomposition(small=small, complement=complement)


# -- one-stop analysis and certification -----------------------------------


class LeviContext:
    """Everything the decision engine needs for one (system, theta) pair."""

    def __init__(self, rs: RootSystem, weyl: WeylGroup, theta):
        self.rs = rs
        self.weyl = weyl
        self.levi = LeviDatum(rs=rs, theta=frozenset(theta))
        self.rd = relative_roots(self.levi)
        self.wm = relative_weyl_group(self.rd, weyl)
        reflections_in_WM(self.rd, self.wm)
        self.dec = decompose_WM(self.rd, self.wm, weyl)

    @property
    def theta(self):
        return self.levi.theta


def analyze(rs: RootSystem, weyl: WeylGroup, theta) -> LeviContext:
    return LeviContext(rs, weyl, theta)


@dataclass
class CertResult:
    family: str
    rank: int
    theta: tuple
    wm_order: int
    small_order: int
    complement_order: int
    phi_m: int
    phi0_size: int
    failures: list
    complement_words: list

    @property
    def ok(self):
        return not self.failures


def certify(rs: RootSystem, weyl: WeylGroup, theta) -> CertResult:
    """Brute-force certification of the semidirect decomposition and the
    subsystem properties for one Levi subset.

    Checks, element by element with no shortcuts:
      * minimal-coset property of the representatives,
      * conjugation identity w w_r w^{-1} = w_{w.r} for all w and all
        reflection-carrying rays (this subsumes both the stability of the
        reflection set and normality of the reflection subgroup),
      * unique factorization, counted directly: every element of W_M is a
        product a*b with a in W0 and b in W1 exactly once (this implies the
        trivial intersection and the order product),
      * the base of the reflection-carrying rays is indecomposable,
      * the longest-element construction agrees with the group scan on
        relative simple rays.
    """
    ctx = analyze(rs, weyl, theta)
    rd, wm, dec = ctx.rd, ctx.wm, ctx.dec
    failures = []
    n_pos = rs.n_pos

    identity = weyl.identity
    rep_perms = frozenset(w.perm for w in wm.reps)
    if identity.perm not in rep_perms:
        failures.append("identity missing from W_M")
    for w in wm.reps:
        if _invert_perm(w.perm) not in rep_perms:
            failures.append(f"inverse of {list(w.word)} missing")
            break

    for w in wm.reps:
        if any(w.perm[i] >= n_pos for i in rd.levi_positive):
            failures.append(f"{list(w.word)} is not W^M-minimal in its coset")
            break

    phi0 = sorted(rd.phi0)
    for w in wm.reps:
        perm = rd.rayperm(w)
        w_inv_perm = _invert_perm(w.perm)
        for r in phi0:
            signed = perm[r]
            target = abs(signed) - 1
            if target not in rd.phi0:
                failures.append(f"phi0 not stable under {list(w.word)}")
                break
            conj = _compose(_compose(w.perm, rd.reflection_of[r].perm), w_inv_perm)
            if conj != rd.reflection_of[target].perm:
                failures.append(
                    f"conjugation identity fails at ray {r} under {list(w.word)}"
                )
                break
        else:
            continue
        break

    products = Counter(_compose(a.perm, b.perm) for a in dec.small for b in dec.complement)
    if products.keys() != rep_perms or set(products.values()) != {1}:
        failures.append("direct pair count contradicts unique factorization")

    for delta in rd.delta0:
        if _two_term_decomposable(rd, delta, phi0):
            failures.append(f"base ray {delta} decomposes inside phi0")

    for r in phi0:
        ray = rd.rays[r]
        if any(i < rs.rank for i in ray.fiber):
            omega = relative_reflection_simple(rd, ray)
            if omega.perm != rd.reflection_of[r].perm:
                failures.append(
                    f"longest-element reflection disagrees with scan at ray {r}"
                )

    return CertResult(
        family=rs.cartan.family,
        rank=rs.rank,
        theta=tuple(sorted(theta)),
        wm_order=len(wm.reps),
        small_order=len(dec.small),
        complement_order=len(dec.complement),
        phi_m=len(rd.rays),
        phi0_size=len(rd.phi0),
        failures=failures,
        complement_words=[list(w.word) for w in dec.complement if not w.is_identity()],
    )


def _two_term_decomposable(rd: RelativeData, target: int, subset) -> bool:
    """Exact test for d_target = x*d_a + y*d_b with x, y > 0 over rays of
    ``subset``; scale-invariant, so valid for arbitrarily normalized rays."""
    d = rd.rays[target].direction
    n = len(d)
    others = [r for r in subset if r != target]
    for ai in range(len(others)):
        for bi in range(ai + 1, len(others)):
            da = rd.rays[others[ai]].direction
            db = rd.rays[others[bi]].direction
            cols = None
            for p in range(n):
                for q in range(p + 1, n):
                    det = da[p] * db[q] - da[q] * db[p]
                    if det != 0:
                        cols = (p, q, det)
                        break
                if cols:
                    break
            if cols is None:
                continue  # parallel directions cannot both be positive rays
            p, q, det = cols
            x = Fraction(d[p] * db[q] - d[q] * db[p], det)
            y = Fraction(da[p] * d[q] - da[q] * d[p], det)
            if x > 0 and y > 0 and all(
                x * da[k] + y * db[k] == d[k] for k in range(n)
            ):
                return True
    return False
