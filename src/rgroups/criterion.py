"""Stabilizers, modified R-groups and irreducibility verdicts.

The decision pipeline, for an induction datum (sigma, nu) on a standard
Levi:

1. the stabilizer of the datum inside the relative Weyl group, computed
   from twisted stabilizer pairs (w, chi) meaning w.sigma = sigma * chi;
2. the reflection-carrying rays fixed by the datum, the subgroup they
   generate, and the positivity-preserving complement -- the modified
   R-group;
3. the Knapp-Stein ladder: the subgroup generated by reflections with
   vanishing rank-one Plancherel measure, its complement (the classical
   R-group), and the quotient piece sitting between the two;
4. the verdict: irreducible exactly when the modified R-group is trivial
   and every co-rank-one induction over a reflection-carrying ray is
   irreducible.

For unramified principal-series data everything is computed internally:
the torsion component of the character plays the role of sigma (every
Weyl element moves it by an unramified twist), the exponent component is
the real parameter, and the rank-one flags come from the exact rank-one
criterion (a wall value q^{+/-1}, or a fixed point whose value is a
nontrivial character with no exponent).

Since the intrinsic coroot normalization of a relative root is a
convention, every report carries the raw pairing values so a verdict can
be re-derived under another normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .charlat import (
    UnramifiedParam,
    eval_on_coroot,
    is_trivial_character,
    is_wall,
    param_add,
    same_character,
    stabilizer as char_stabilizer,
    table_act,
    table_sum,
    trivial_param,
    value_table,
    weyl_act,
)
from .errors import EngineRejection, InvariantViolation
from .levi import LeviContext, split_reflections
from .rootsys import WeylElement

POSITIVITY_NOTE = (
    "complements are taken against the positivity inherited from the ambient "
    "positive relative roots"
)


def _sorted_elements(elems):
    return tuple(sorted(set(elems), key=lambda w: (len(w.word), w.word)))


def _directions(rd, rays) -> list:
    return [list(rd.rays[r].direction) for r in rays]


# -- sigma oracles ----------------------------------------------------------


@dataclass(frozen=True)
class SigmaOracle:
    """Combinatorial shadow of the inducing supercuspidal: twisted
    stabilizer pairs (w, chi) meaning w.sigma = sigma * chi, plus rank-one
    flags keyed by ray index.

    With ``pairs`` None, sigma is the torus character ``sigma`` (None for
    the trivial one) and every element of W_M is paired with the twist
    w.sigma - sigma: the principal-series case.
    """

    pairs: tuple | None = None
    sigma: UnramifiedParam | None = None
    mu_zero: dict | None = None
    corank_irred: dict | None = None

    # -- stabilizers -------------------------------------------------------

    def datum_stabilizer(self, ctx: LeviContext, nu: UnramifiedParam) -> tuple:
        if self.pairs is None:
            lam = nu if self.sigma is None else param_add(nu, self.sigma)
            return char_stabilizer(lam, ctx.wm.reps)
        for w, _ in self.pairs:
            if not all(w.perm[i] in nu.theta for i in nu.theta):
                raise EngineRejection(
                    f"element {list(w.word)} does not normalize the Levi subset"
                )
        nu_table = value_table(nu)

        def fixes(w, chi):  # chi + w.nu == nu
            moved = table_act(ctx.rs, ctx.weyl.inv(w).perm, nu_table)
            return table_sum(value_table(chi), moved) == nu_table

        return _sorted_elements(w for w, chi in self.pairs if fixes(w, chi))

    def sigma_stabilizer(self, ctx: LeviContext) -> tuple:
        """Elements fixing sigma itself (trivial twist)."""
        return self.datum_stabilizer(ctx, trivial_param(ctx.rs, ctx.theta))

    def all_twists_trivial(self, ctx: LeviContext) -> bool:
        if self.pairs is not None:
            trivial = value_table(trivial_param(ctx.rs, ctx.theta))
            return all(value_table(chi) == trivial for _, chi in self.pairs)
        sigma = self.sigma
        return sigma is None or all(
            same_character(weyl_act(w, sigma), sigma) for w in ctx.wm.reps
        )

    # -- validation ----------------------------------------------------------

    def validate_pairs(self, ctx: LeviContext) -> None:
        """Twisted-subgroup laws of explicit stabilizer pairs, checked in
        this order: every w lies in W_M; (identity, trivial) is a pair;
        every pair (w, chi) has its inverse (w^-1, -w^-1.chi); the pairs
        are closed under (w1, chi1)(w2, chi2) = (w1 w2, chi1 + w1.chi2).
        A rejection names the first law that fails and one witness.

        Each pair is keyed by w's permutation and chi's value table, so
        every membership test is a hash lookup.  Closure is tested on
        generators: a walk from (1, 0) multiplies each reached pair on the
        right by each generator, a pair not reached yet becomes the next
        generator, and a product outside the set S of pairs is rejected.

        Why that suffices.  Once the walk ends, 1 is in S and S.g lies in S
        for every generator g.  Right multiplication by g is injective, so
        it is a bijection of the finite set S; hence S.<G> = S, and
        <G> = 1.<G> lies in S.  Every pair was reached from 1 by
        generators, so S lies in <G>.  So S = <G> is a group.

        Why it is cheaper.  The pairs reached by the first k generators
        form the group they generate, and the next generator lies outside
        it, so the group at least doubles each time: |G| <= log2 |S|, and
        the walk forms |S|.|G| products instead of |S|^2.
        """
        if self.pairs is None:
            return
        rs, weyl = ctx.rs, ctx.weyl
        rep_set = {w.perm for w in ctx.wm.reps}
        for w, _ in self.pairs:
            if w.perm not in rep_set:
                raise EngineRejection(
                    f"stabilizer pair element {list(w.word)} is not in the relative Weyl group"
                )
        elements = {}  # (perm, value table) -> the pair's element
        for w, chi in self.pairs:
            elements.setdefault((w.perm, value_table(chi)), w)
        one = (weyl.identity.perm, value_table(trivial_param(rs, ctx.theta)))
        if one not in elements:
            raise EngineRejection("stabilizer pairs must contain (identity, trivial)")
        for (perm, table), w in elements.items():
            twist = table_act(rs, perm, table)  # w^-1.chi
            if (weyl.inv(w).perm, tuple((-q, -t % 1) for q, t in twist)) not in elements:
                raise EngineRejection(
                    f"stabilizer pairs are not inverse-closed at {list(w.word)}"
                )

        reached, gens = [one], []
        walked = {one: 0}  # reached pair -> how many generators it was multiplied by
        for candidate in elements:
            if candidate in walked:
                continue
            gens.append(candidate)
            for key in reached:  # the list grows during the walk
                x, x_table = elements[key], key[1]
                x_inv = weyl.inv(x).perm
                for g_key in gens[walked[key]:]:
                    g = elements[g_key]
                    product = (
                        weyl.mult(x, g).perm,
                        table_sum(x_table, table_act(rs, x_inv, g_key[1])),
                    )
                    if product not in elements:
                        raise EngineRejection(
                            "stabilizer pairs are not closed under composition at "
                            f"({list(x.word)}, {list(g.word)})"
                        )
                    if product not in walked:
                        walked[product] = 0
                        reached.append(product)
                walked[key] = len(gens)


def unramified_oracle(ctx: LeviContext, lam: UnramifiedParam):
    """Canonical oracle for an unramified principal-series datum: the real
    exponent is the parameter, the torsion twist plays sigma."""
    return lam.q_only(), SigmaOracle(sigma=lam.torsion_only())


def trivial_twist_oracle(ctx: LeviContext, mu_zero=None, corank_irred=None):
    """Every element of W_M fixes sigma."""
    return SigmaOracle(mu_zero=mu_zero, corank_irred=corank_irred)


def explicit_oracle(pairs, mu_zero=None, corank_irred=None):
    return SigmaOracle(tuple(pairs), mu_zero=mu_zero, corank_irred=corank_irred)


# -- core operations ---------------------------------------------------------


def phi_sigma_nu_0(ctx: LeviContext, stab) -> frozenset:
    stab_perms = {w.perm for w in stab}
    return frozenset(
        r for r in ctx.rd.phi0 if ctx.rd.reflection_of[r].perm in stab_perms
    )


def _check_orbit_constancy(ctx, stab, flags, label):
    for w in stab:
        perm = ctx.rd.rayperm(w)
        for r, value in flags.items():
            target = abs(perm[r]) - 1
            if target in flags and flags[target] != value:
                raise EngineRejection(
                    f"{label} flags are not constant on stabilizer orbits "
                    f"(rays {r} and {target} under {list(w.word)})"
                )


def r_group(ctx: LeviContext, stab, phi0):
    """Reflection subgroup of the stabilizer and its positivity-preserving
    complement, with the splitting verified outright."""
    return split_reflections(ctx.rd, ctx.weyl, stab, phi0, "stabilizer splitting")


def delta_1(ctx: LeviContext, nu: UnramifiedParam):
    """Reflection-carrying rays where the exponent pairs to the identity
    value, the group they generate, and its base."""
    rays = frozenset(
        r
        for r in ctx.rd.phi0
        if eval_on_coroot(ctx.rd, nu, ctx.rd.rays[r]).is_trivial()
    )
    group = ctx.weyl.closure([ctx.rd.reflection_of[r] for r in sorted(rays)])
    return rays, group, ctx.rd.simple_rays(rays)


def knapp_stein_ladder(ctx: LeviContext, stab, phi0, mu_map, small, comp):
    """Classical R-group data sitting above the modified one.

    Returns (W0', R', R0) where W0' is generated by the reflections with
    vanishing rank-one Plancherel measure, R' is its positivity-preserving
    complement in the stabilizer, and R0 = W0 ∩ R' realizes W0/W0'.
    """
    mu_true = [r for r in phi0 if mu_map[r]]
    w0_prime, r_prime = split_reflections(ctx.rd, ctx.weyl, stab, mu_true, "Knapp-Stein splitting")
    small_set = {w.perm for w in small}
    r_prime_set = {w.perm for w in r_prime}
    r0 = tuple(w for w in r_prime if w.perm in small_set)
    comp_set = {w.perm for w in comp}
    if not comp_set <= r_prime_set:
        raise InvariantViolation("modified complement escaped the classical one")
    if len(r0) * len(w0_prime) != len(small):
        raise InvariantViolation("R0 does not realize W0 / W0'")
    if len(r_prime) != len(r0) * len(comp):
        raise InvariantViolation("R' = R0 x R order bookkeeping failed")
    if {w.perm for w in r0} & comp_set != {ctx.weyl.identity.perm}:
        raise InvariantViolation("R0 and R intersect nontrivially")
    r0_set = {w.perm for w in r0}
    for w in r_prime:
        w_inv = ctx.weyl.inv(w)
        for u in r0:
            conj = ctx.weyl.mult(ctx.weyl.mult(w, u), w_inv)
            if conj.perm not in r0_set:
                raise InvariantViolation("R0 is not normal in R'")
            if conj.perm not in r_prime_set:
                raise InvariantViolation("R' is not conjugation-stable")
    return w0_prime, r_prime, r0


# -- reports -----------------------------------------------------------------


@dataclass
class SubgroupSummary:
    order: int
    words: list

    def to_dict(self):
        return {"order": self.order, "words": self.words}


def _summary(elems, cap=64) -> SubgroupSummary:
    words = [[i + 1 for i in w.word] for w in elems[:cap]]
    return SubgroupSummary(order=len(elems), words=words)


@dataclass
class CriterionReport:
    mode: str
    family: str
    rank: int
    theta: list
    relative: dict
    values: list
    phi0_sigma: list
    stab: SubgroupSummary
    w0: SubgroupSummary
    r: SubgroupSummary
    verdict: str
    reasons: list
    delta1: dict | None = None
    w0_prime: SubgroupSummary | None = None
    r_prime: SubgroupSummary | None = None
    r0: SubgroupSummary | None = None
    corank: list | None = None
    mu: list | None = None
    walls: list | None = None
    shortcuts: dict | None = None
    orbit_note: dict | None = None
    positivity_choice: str = POSITIVITY_NOTE
    _r_elements: tuple = field(default=None, repr=False)
    _corank_by_ray: dict = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "family": self.family,
            "rank": self.rank,
            "theta": self.theta,
            "relative": self.relative,
            "values": self.values,
            "phi0_sigma": self.phi0_sigma,
            "stabilizer": self.stab.to_dict(),
            "w0": self.w0.to_dict(),
            "r_modified": self.r.to_dict(),
            "verdict": self.verdict,
            "reasons": self.reasons,
            "positivity_choice": self.positivity_choice,
        }
        if self.delta1 is not None:
            out["delta1"] = self.delta1
        if self.w0_prime is not None:
            out["w0_prime"] = self.w0_prime.to_dict()
            out["r_knapp_stein"] = self.r_prime.to_dict()
            out["r0"] = self.r0.to_dict()
        if self.corank is not None:
            out["corank_one"] = self.corank
        if self.mu is not None:
            out["mu_zero"] = self.mu
        if self.walls is not None:
            out["walls"] = self.walls
        if self.shortcuts is not None:
            out["shortcuts"] = self.shortcuts
        if self.orbit_note is not None:
            out["orbit_note"] = self.orbit_note
        return out


def _relative_summary(ctx: LeviContext) -> dict:
    rd, dec = ctx.rd, ctx.dec
    return {
        "relative_roots": len(rd.rays),
        "directions": [list(r.direction) for r in rd.rays],
        "fiber_sizes": [len(r.fiber) for r in rd.rays],
        "phi0": _directions(rd, sorted(rd.phi0)),
        "delta0": _directions(rd, rd.delta0),
        "wm_order": len(ctx.wm.reps),
        "w0m_order": len(dec.small),
        "w1m_order": len(dec.complement),
    }


def _orbit_note(ctx: LeviContext) -> dict:
    nontrivial = [w for w in ctx.dec.complement if not w.is_identity()]
    return {
        "w1_words": [[i + 1 for i in w.word] for w in nontrivial],
        "note": (
            "translating the inducing datum by any of these elements yields an "
            "equivalent induction; verdicts are invariant under them"
        ),
    }


# -- the decision procedures --------------------------------------------------


def _supplied_flags(ctx: LeviContext, flags, domain, name: str, where: str) -> dict:
    """An oracle's rank-one flags on the sorted rays ``domain``."""
    if not domain:
        return {}
    if flags is None:
        raise EngineRejection(f"oracle must supply {name} flags {where}")
    missing = [r for r in domain if r not in flags]
    if missing:
        raise EngineRejection(f"{name} flags missing for rays {_directions(ctx.rd, missing)}")
    return {r: bool(flags[r]) for r in domain}


def _report(ctx: LeviContext, mode, values, stab, fixed, small, comp, reasons, **extra):
    """The fields both readings share.  ``values`` maps every ray to the
    pairing of the full character; ``fixed`` is the reflection-carrying ray
    set the R-group is split against.  Irreducible exactly when no reason
    clause is listed."""
    rd = ctx.rd
    return CriterionReport(
        mode=mode,
        family=ctx.rs.cartan.family,
        rank=ctx.rs.rank,
        theta=sorted(i + 1 for i in ctx.theta),
        relative=_relative_summary(ctx),
        values=[
            {"direction": list(ray.direction), **values[r].as_strings()}
            for r, ray in enumerate(rd.rays)
        ],
        phi0_sigma=_directions(rd, sorted(fixed)),
        stab=_summary(stab),
        w0=_summary(small),
        r=_summary(comp),
        verdict="reducible" if reasons else "irreducible",
        reasons=reasons or [{"clause": "irreducible"}],
        orbit_note=_orbit_note(ctx),
        _r_elements=comp,
        **extra,
    )


def _pairing_values(ctx: LeviContext, lam: UnramifiedParam) -> dict:
    rd = ctx.rd
    return {r: eval_on_coroot(rd, lam, ray) for r, ray in enumerate(rd.rays)}


def _walls(ctx: LeviContext, values) -> list:
    return _directions(ctx.rd, [r for r, v in values.items() if is_wall(v)])


def decide_gps(ctx: LeviContext, nu: UnramifiedParam, oracle: SigmaOracle | None = None) -> CriterionReport:
    """Irreducibility of a generalized principal series from its
    combinatorial datum: trivial modified R-group plus irreducible
    co-rank-one inductions.

    Without an oracle the datum is an unramified principal-series
    character: its torsion part is sigma, and the rank-one flags come from
    its pairing values (a wall, or a fixed ray with a nontrivial value)."""
    rd = ctx.rd
    lam = nu
    internal = oracle is None
    if internal:
        if ctx.theta:
            raise EngineRejection(
                "a sigma oracle is required for a proper Levi subset; only the "
                "principal-series case is decided oracle-free"
            )
        nu, oracle = unramified_oracle(ctx, lam)
    else:
        if not is_trivial_character(nu.torsion_only()):
            raise EngineRejection(
                "with an explicit sigma oracle the inducing exponent must be real; "
                "fold torsion twists into the oracle's stabilizer pairs"
            )
        oracle.validate_pairs(ctx)

    stab = oracle.datum_stabilizer(ctx, nu)
    fixed = phi_sigma_nu_0(ctx, stab)
    values = _pairing_values(ctx, lam)
    if internal:
        corank = {
            r: not is_wall(values[r]) and not (r in fixed and not values[r].is_trivial())
            for r in sorted(rd.phi0)
        }
        mu_map = {r: values[r].torsion == 0 for r in sorted(fixed)}
    else:
        corank = _supplied_flags(
            ctx, oracle.corank_irred, sorted(rd.phi0), "corank_irred",
            "on every reflection-carrying ray",
        )
        mu_map = _supplied_flags(ctx, oracle.mu_zero, sorted(fixed), "mu_zero", "on the fixed rays")
    _check_orbit_constancy(ctx, stab, corank, "corank_irred")
    _check_orbit_constancy(ctx, stab, mu_map, "mu_zero")

    small, comp = r_group(ctx, stab, fixed)
    d1_rays, d1_group, d1_base = delta_1(ctx, nu)
    w0_prime, r_prime, r0 = knapp_stein_ladder(ctx, stab, fixed, mu_map, small, comp)

    reasons = []
    if len(comp) > 1:
        reasons.append({"clause": "modified-r-group-nontrivial", "order": len(comp)})
    bad_rays = [r for r in sorted(rd.phi0) if not corank[r]]
    if bad_rays:
        reasons.append(
            {"clause": "corank-one-reducible", "directions": _directions(rd, bad_rays)}
        )

    d1_set = {w.perm for w in d1_group}
    contains = all(w.perm in d1_set for w in stab)
    asserted = oracle.all_twists_trivial(ctx) and not ctx.theta
    if asserted and not contains:
        raise InvariantViolation(
            "stabilizer escaped the group generated by the identity-value rays"
        )

    report = _report(
        ctx, "decide-gps", values, stab, fixed, small, comp, reasons,
        delta1={
            "rays": _directions(rd, sorted(d1_rays)),
            "base": _directions(rd, d1_base),
            "group_order": len(d1_group),
            "contains_stabilizer": contains,
            "asserted": asserted,
        },
        w0_prime=_summary(w0_prime),
        r_prime=_summary(r_prime),
        r0=_summary(r0),
        corank=[
            {
                "direction": list(rd.rays[r].direction),
                "irreducible": corank[r],
                "source": "internal" if internal else "oracle",
            }
            for r in sorted(rd.phi0)
        ],
        mu=[
            {"direction": list(rd.rays[r].direction), "mu_zero": mu_map[r]}
            for r in sorted(fixed)
        ],
        walls=_walls(ctx, values) if internal else None,
        _corank_by_ray=corank,
    )
    report.shortcuts = {
        "regular": regular_shortcut(report, corank),
        "unitary": unitary_shortcut(report, ctx, nu, corank, mu_map),
    }
    return report


def decide_ps_unramified(ctx: LeviContext, lam: UnramifiedParam) -> CriterionReport:
    """Exact principal-series criterion with Keys' R-group: no wall value
    anywhere and a trivial complement to the reflections of the
    value-trivial rays inside the character stabilizer."""
    if ctx.theta:
        raise EngineRejection("the principal-series path needs the full torus Levi")
    values = _pairing_values(ctx, lam)
    fixed = frozenset(r for r, v in values.items() if v.is_trivial())
    stab = char_stabilizer(lam, ctx.weyl.elements)
    small, comp = r_group(ctx, stab, fixed)
    walls = _walls(ctx, values)

    reasons = []
    if walls:
        reasons.append({"clause": "wall", "directions": walls})
    if len(comp) > 1:
        reasons.append({"clause": "r-group-nontrivial", "order": len(comp)})
    return _report(ctx, "decide-ps", values, stab, fixed, small, comp, reasons, walls=walls)


def regular_shortcut(report: CriterionReport, corank: dict) -> dict:
    """For a regular datum (trivial stabilizer) the verdict must equal the
    conjunction of the co-rank-one flags; disagreement is an internal
    inconsistency, not a data error."""
    if report.stab.order != 1:
        return {"applies": False}
    expected = "irreducible" if all(corank.values()) else "reducible"
    if report.verdict != expected:
        raise InvariantViolation(
            "regular shortcut disagrees with the computed verdict"
        )
    return {"applies": True, "verdict": expected}


def unitary_shortcut(report: CriterionReport, ctx: LeviContext, nu: UnramifiedParam,
                     corank: dict, mu_map: dict) -> dict:
    """For a unitary datum the verdict is equivalent to triviality of the
    classical R-group.  Requires the two oracle flag families to agree on
    the fixed rays (the keys of ``mu_map``), and co-rank-one irreducibility
    off them."""
    if not nu.is_unitary():
        return {"applies": False}
    rd = ctx.rd
    for r in sorted(mu_map):
        if corank[r] != mu_map[r]:
            raise EngineRejection(
                "unitary datum: corank_irred and mu_zero disagree on ray "
                f"{list(rd.rays[r].direction)}"
            )
    for r in sorted(rd.phi0):
        if r not in mu_map and not corank[r]:
            raise EngineRejection(
                "unitary datum: a co-rank-one induction with unfixed datum "
                f"cannot be reducible (ray {list(rd.rays[r].direction)})"
            )
    r_prime_trivial = report.r_prime.order == 1
    expected = "irreducible" if r_prime_trivial else "reducible"
    if report.verdict != expected:
        raise InvariantViolation("unitary shortcut disagrees with the verdict")
    return {"applies": True, "verdict": expected, "r_knapp_stein_trivial": r_prime_trivial}


# -- counting and prediction ---------------------------------------------------


def _root_support(rs, idx):
    return frozenset(j for j, c in enumerate(rs.roots[idx]) if c)


def product_formula_count(ctx: LeviContext, blocks, factor_counts, report: CriterionReport) -> int:
    """Multiply per-block constituent counts after verifying that every
    source of reducibility is confined to a single block."""
    rs = ctx.rs
    blocks = [tuple(sorted(b)) for b in blocks]
    if len(factor_counts) != len(blocks):
        raise EngineRejection("factor_counts must match the number of blocks")
    if any((not isinstance(c, int)) or c < 1 for c in factor_counts):
        raise EngineRejection("factor counts must be positive integers")
    seen = set()
    for b in blocks:
        for i in b:
            if not 0 <= i < rs.rank:
                raise EngineRejection(f"block index {i + 1} out of range")
            if i in seen:
                raise EngineRejection(f"blocks overlap at index {i + 1}")
            seen.add(i)
    if not ctx.theta <= seen:
        raise EngineRejection("blocks must cover the Levi subset")
    for x in range(len(blocks)):
        for y in range(x + 1, len(blocks)):
            for i in blocks[x]:
                for j in blocks[y]:
                    if rs.cartan.matrix[i][j] != 0:
                        raise EngineRejection(
                            f"blocks are not mutually orthogonal: edge between "
                            f"alpha_{i + 1} and alpha_{j + 1}"
                        )

    def block_of(support):
        hits = [k for k, b in enumerate(blocks) if support <= set(b)]
        return hits[0] if hits else None

    flags = report._corank_by_ray
    for r in sorted(ctx.rd.phi0):
        if flags[r]:
            continue
        support = frozenset().union(
            *(_root_support(rs, i) for i in ctx.rd.rays[r].fiber)
        )
        if block_of(support) is None:
            raise EngineRejection(
                "decomposition hypothesis fails: reducible co-rank-one ray "
                f"{list(ctx.rd.rays[r].direction)} crosses the blocks"
            )
    for w in report._r_elements:
        if w.is_identity():
            continue
        moved = frozenset().union(
            *(
                _root_support(rs, i)
                for i in range(len(rs.roots))
                if w.perm[i] != i
            )
        )
        if block_of(moved) is None:
            raise EngineRejection(
                "decomposition hypothesis fails: modified R-group element "
                f"{list(w.word)} crosses the blocks"
            )
    total = 1
    for c in factor_counts:
        total *= c
    return total


def type_a_blocks(ctx: LeviContext) -> list:
    """Block partition of the linear group behind a type-A Levi subset."""
    if ctx.rs.cartan.family != "A":
        raise EngineRejection("block structure is only defined for family A")
    blocks = []
    current = [0]
    for i in range(ctx.rs.rank):
        if i in ctx.theta:
            current.append(i + 1)
        else:
            blocks.append(tuple(current))
            current = [i + 1]
    blocks.append(tuple(current))
    return blocks


def _ray_block_pair(ctx, ray, blocks):
    coords = ctx.rs.roots[ray.fiber[0]]
    lo = min(j for j, c in enumerate(coords) if c)
    hi = max(j for j, c in enumerate(coords) if c)
    member = {}
    for k, b in enumerate(blocks):
        for pos in b:
            member[pos] = k
    return frozenset((member[lo], member[hi + 1]))


@dataclass
class PredictReport:
    applies: bool
    reason: str
    predicted: str | None = None
    flags: list | None = None
    r_sigma_order: int | None = None

    def to_dict(self):
        out = {"applies": self.applies, "reason": self.reason}
        if self.predicted is not None:
            out["predicted_verdict"] = self.predicted
        if self.flags is not None:
            out["corank_one"] = self.flags
        if self.r_sigma_order is not None:
            out["r_sigma_order"] = self.r_sigma_order
        return out


def conjecture_predict(
    ctx: LeviContext,
    nu: UnramifiedParam,
    oracle: SigmaOracle,
    pairwise: dict | None = None,
    corank_all: dict | None = None,
) -> PredictReport:
    """Predicted verdict for general parabolic induction: when the modified
    R-group of the supercuspidal support is trivial, irreducibility should
    equal the co-rank-one conjunction over all relative roots (not only the
    reflection-carrying ones)."""
    sigma_stab = oracle.sigma_stabilizer(ctx)
    phi0_sigma = phi_sigma_nu_0(ctx, sigma_stab)
    small, comp = r_group(ctx, sigma_stab, phi0_sigma)
    if len(comp) != 1:
        return PredictReport(
            applies=False,
            reason=f"modified R-group of the support has order {len(comp)}",
            r_sigma_order=len(comp),
        )
    rd = ctx.rd
    if pairwise is not None:
        blocks = type_a_blocks(ctx)
        for pair in pairwise:
            if max(pair) >= len(blocks):
                raise EngineRejection(
                    f"pairwise block index {max(pair) + 1} out of range: "
                    f"the Levi has {len(blocks)} blocks"
                )
        flags = {}
        for r, ray in enumerate(rd.rays):
            pair = _ray_block_pair(ctx, ray, blocks)
            if pair not in pairwise:
                raise EngineRejection(
                    f"pairwise matrix missing blocks {sorted(pair)}"
                )
            flags[r] = bool(pairwise[pair])
    else:
        if corank_all is None:
            raise EngineRejection(
                "prediction needs co-rank-one flags over every relative root"
            )
        missing = [r for r in range(len(rd.rays)) if r not in corank_all]
        if missing:
            raise EngineRejection(
                f"co-rank-one flags missing for rays {_directions(rd, missing)}"
            )
        flags = {r: bool(corank_all[r]) for r in range(len(rd.rays))}
    predicted = "irreducible" if all(flags.values()) else "reducible"
    return PredictReport(
        applies=True,
        reason="modified R-group of the support is trivial",
        predicted=predicted,
        flags=[
            {"direction": list(rd.rays[r].direction), "irreducible": flags[r]}
            for r in range(len(rd.rays))
        ],
        r_sigma_order=1,
    )


# -- datum translation (orbit identification) ---------------------------------


def translate_datum(ctx: LeviContext, w1: WeylElement, nu: UnramifiedParam, oracle: SigmaOracle):
    """Transport an induction datum by a Levi-normalizing element; the
    translated datum induces an equivalent representation, so verdicts must
    agree.  Used both for reporting and for verification sweeps."""
    nu_t = weyl_act(w1, nu)
    perm = ctx.rd.rayperm(w1)
    w1_inv = ctx.weyl.inv(w1)

    def move_flags(flags):
        if flags is None:
            return None
        return {abs(perm[r]) - 1: v for r, v in flags.items()}

    pairs = oracle.pairs
    if pairs is not None:
        pairs = tuple(
            (ctx.weyl.mult(ctx.weyl.mult(w1, w), w1_inv), weyl_act(w1, chi))
            for w, chi in pairs
        )
    sigma = oracle.sigma
    if sigma is not None:
        sigma = weyl_act(w1, sigma)
    return nu_t, SigmaOracle(
        pairs, sigma, move_flags(oracle.mu_zero), move_flags(oracle.corank_irred)
    )
