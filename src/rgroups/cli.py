"""Batch front end.

One JSON problem description in, one report envelope out.  Verbs:

  decompose      relative root data and the W_M = W0 x W1 splitting
  decide-ps      unramified principal-series irreducibility
  decide-gps     generalized principal-series irreducibility
  verify         exhaustive certification over all Levi subsets
  atlas          verdict sweep over a character grid
  product-count  constituent counting under the block-confinement hypothesis
  predict        conjectural verdict from pairwise / co-rank-one flags

Exit codes: 0 ok, 2 schema error, 3 engine rejection, 4 internal invariant
failure or any other unexpected error; each failure writes one JSON line to
stderr.  All rationals travel as strings, so nothing is ever rounded.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product as iproduct

from . import __version__
from ._rat import parse_rational
from .charlat import UnramifiedParam, param_from_coords, trivial_param
from .criterion import (
    SigmaOracle,
    conjecture_predict,
    decide_gps,
    decide_ps_unramified,
    explicit_oracle,
    product_formula_count,
)
from .errors import EngineRejection, InvariantViolation, RGroupsError, SchemaError
from .levi import analyze, certify
from .rootsys import DEFAULT_GROUP_CAP, build_cartan, build_root_system, generate_weyl

MODES = (
    "decompose",
    "decide-ps",
    "decide-gps",
    "verify",
    "atlas",
    "product-count",
    "predict",
)

CONVENTIONS = {
    "cartan": "A[i][j] = <alpha_j, alpha_i^vee>, Bourbaki node numbering",
    "coroot_normalization": (
        "relative coroot of a reduced relative root a is 2a/(a,a) under the "
        "invariant form; reports carry raw pairing values for re-derivation"
    ),
    "wall": "character value equal to q^{+1} or q^{-1} exactly",
    "character_equality": (
        "q-exponent vectors compared exactly; torsion vectors compared modulo "
        "integrality against every simple coroot"
    ),
    "indexing": "simple roots and words are 1-based in all input and output",
}

ATLAS_BUDGET = 100_000


def _require_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"missing keys in {where}: {sorted(missing)}")


def _int_list(value, where: str) -> list:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise SchemaError(f"{where} must be a list of integers")
    return value


def _rational_list(value, rank: int, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a list of rationals")
    if len(value) != rank:
        raise SchemaError(f"{where} must have length {rank}")
    return [parse_rational(x) for x in value]


MODE_KEYS = {
    "decompose": set(),
    "decide-ps": {"character"},
    "decide-gps": {"character", "sigma"},
    "verify": {"max_rank"},
    "atlas": {"grid", "budget"},
    "product-count": {"character", "sigma", "blocks", "factor_counts"},
    "predict": {"character", "sigma", "pairwise"},
}


class Problem:
    """Parsed and validated problem description."""

    def __init__(self, raw: dict, mode: str, cap: int):
        _require_keys(
            raw,
            allowed={"mode", "family", "rank", "levi", "cap"} | MODE_KEYS[mode],
            required={"family", "rank"},
            where=f"problem ({mode})",
        )
        if "mode" in raw:
            if raw["mode"] not in MODES:
                raise SchemaError(f"unknown mode {raw['mode']!r}")
            if raw["mode"] != mode:
                raise SchemaError(
                    f"input file says mode {raw['mode']!r} but the verb is {mode!r}"
                )
        self.raw = raw
        self.mode = mode
        family = raw["family"]
        rank = raw["rank"]
        if not isinstance(family, str) or not isinstance(rank, int) or isinstance(rank, bool):
            raise SchemaError("family must be a letter and rank an integer")
        self.family = family
        self.rank = rank
        self.cap = raw.get("cap", cap)
        if not isinstance(self.cap, int) or isinstance(self.cap, bool) or self.cap < 1:
            raise SchemaError("cap must be a positive integer")
        levi = raw.get("levi", [])
        self.levi = sorted(i - 1 for i in _int_list(levi, "levi"))
        if any(i < 0 or i >= rank for i in self.levi):
            raise SchemaError("levi indices must lie in 1..rank")
        if len(set(self.levi)) != len(self.levi):
            raise SchemaError("levi indices must be distinct")


def _parse_character(spec, rs, theta, where="character") -> UnramifiedParam:
    if spec is None:
        return trivial_param(rs, theta)
    _require_keys(spec, allowed={"basis", "q_part", "t_part"}, required=set(), where=where)
    basis = spec.get("basis", "simple-root")
    if basis not in ("simple-root", "fundamental-weight"):
        raise SchemaError(f"{where}: unknown basis {basis!r}")
    zeros = ["0"] * rs.rank
    q = spec.get("q_part", zeros)
    t = spec.get("t_part", zeros)
    _rational_list(q, rs.rank, f"{where}.q_part")
    _rational_list(t, rs.rank, f"{where}.t_part")
    return param_from_coords(rs, theta, q, t, basis=basis)


def _parse_flag_list(entries, ctx, where: str) -> dict:
    if entries is None:
        return None
    if not isinstance(entries, list):
        raise SchemaError(f"{where} must be a list")
    direction_index = {r.direction: r.index for r in ctx.rd.rays}
    out = {}
    for item in entries:
        _require_keys(item, allowed={"direction", "value"}, required={"direction", "value"}, where=where)
        direction = tuple(_int_list(item["direction"], f"{where}.direction"))
        if direction not in direction_index:
            raise SchemaError(
                f"{where}: {list(direction)} is not a relative root direction; "
                f"known directions: {[list(r.direction) for r in ctx.rd.rays]}"
            )
        if not isinstance(item["value"], bool):
            raise SchemaError(f"{where}.value must be boolean")
        idx = direction_index[direction]
        if idx in out:
            raise SchemaError(f"{where}: duplicate direction {list(direction)}")
        out[idx] = item["value"]
    return out


def _require_corank_coverage(oracle, ctx, where="sigma.corank_irred"):
    """The decision gate needs co-rank-one flags on every reflection-carrying
    ray; report the uncovered directions at the input-validation stage."""
    supplied = oracle.corank_irred or {}
    missing = [
        list(ctx.rd.rays[r].direction) for r in sorted(ctx.rd.phi0) if r not in supplied
    ]
    if missing:
        raise SchemaError(f"{where}: flags missing for relative roots {missing}")


def _parse_sigma(spec, ctx, where="sigma") -> SigmaOracle:
    _require_keys(
        spec,
        allowed={"stab_pairs", "mu_zero", "corank_irred"},
        required=set(),
        where=where,
    )
    rs = ctx.rs
    theta = ctx.theta
    pairs_spec = spec.get("stab_pairs")
    if pairs_spec is None:
        pairs = ((ctx.weyl.identity, trivial_param(rs, theta)),)
    else:
        if not isinstance(pairs_spec, list):
            raise SchemaError(f"{where}.stab_pairs must be a list")
        pairs = []
        for item in pairs_spec:
            _require_keys(
                item, allowed={"word", "twist"}, required={"word"}, where=f"{where}.stab_pairs[]"
            )
            word = [i - 1 for i in _int_list(item["word"], "stab_pairs.word")]
            if any(i < 0 or i >= rs.rank for i in word):
                raise SchemaError("stab_pairs word letters must lie in 1..rank")
            element = ctx.weyl.element_from_word(word)
            twist = _parse_character(item.get("twist"), rs, theta, where="twist")
            pairs.append((element, twist))
        pairs = tuple(pairs)
    oracle = explicit_oracle(
        pairs,
        mu_zero=_parse_flag_list(spec.get("mu_zero"), ctx, f"{where}.mu_zero"),
        corank_irred=_parse_flag_list(spec.get("corank_irred"), ctx, f"{where}.corank_irred"),
    )
    return oracle


def _build_context(problem: Problem):
    cartan = build_cartan(problem.family, problem.rank)
    rs = build_root_system(cartan)
    weyl = generate_weyl(rs, cap=problem.cap)
    return analyze(rs, weyl, problem.levi)


# -- mode runners -------------------------------------------------------------


def run_decompose(problem: Problem) -> dict:
    ctx = _build_context(problem)
    rd, dec = ctx.rd, ctx.dec
    rays = []
    for ray in rd.rays:
        entry = {
            "direction": list(ray.direction),
            "fiber_size": len(ray.fiber),
            "in_phi0": ray.index in rd.phi0,
        }
        if ray.index in rd.phi0:
            entry["reflection_word"] = [i + 1 for i in rd.reflection_of[ray.index].word]
        rays.append(entry)
    return {
        "relative_roots": rays,
        "phi0": [list(rd.rays[r].direction) for r in sorted(rd.phi0)],
        "delta0": [list(rd.rays[r].direction) for r in rd.delta0],
        "wm_order": len(ctx.wm.reps),
        "w0_order": len(dec.small),
        "w1_order": len(dec.complement),
        "w1_words": [[i + 1 for i in w.word] for w in dec.complement],
    }


def run_decide_ps(problem: Problem) -> dict:
    if problem.levi:
        raise SchemaError("decide-ps works on the full torus Levi; drop the levi key")
    ctx = _build_context(problem)
    lam = _parse_character(problem.raw.get("character"), ctx.rs, ())
    return {"report": decide_ps_unramified(ctx, lam).to_dict()}


def _gps_datum(problem: Problem):
    """Context, exponent and optional sigma oracle of a decide-gps problem."""
    ctx = _build_context(problem)
    nu = _parse_character(problem.raw.get("character"), ctx.rs, ctx.theta)
    sigma_spec = problem.raw.get("sigma")
    oracle = None
    if sigma_spec is not None:
        oracle = _parse_sigma(sigma_spec, ctx)
        _require_corank_coverage(oracle, ctx)
    return ctx, nu, oracle


def run_decide_gps(problem: Problem) -> dict:
    return {"report": decide_gps(*_gps_datum(problem)).to_dict()}


def run_verify(problem: Problem) -> dict:
    """Certify every Levi subset of (family, rank); with max_rank present,
    sweep every valid rank up to it."""
    max_rank = problem.raw.get("max_rank")
    if max_rank is None:
        ranks = [problem.rank]
    else:
        if not isinstance(max_rank, int) or isinstance(max_rank, bool) or max_rank < 1:
            raise SchemaError("max_rank must be a positive integer")
        ranks = list(range(1, max_rank + 1))
    cases = []
    failures = []
    fixtures = []
    for rank in ranks:
        try:
            cartan = build_cartan(problem.family, rank)
        except EngineRejection:
            if rank == problem.rank and max_rank is None:
                raise
            continue
        rs = build_root_system(cartan)
        weyl = generate_weyl(rs, cap=problem.cap)
        for mask in range(2**rank):
            theta = [i for i in range(rank) if mask >> i & 1]
            result = certify(rs, weyl, theta)
            cases.append(
                {
                    "rank": rank,
                    "theta": [i + 1 for i in result.theta],
                    "wm_order": result.wm_order,
                    "w0_order": result.small_order,
                    "w1_order": result.complement_order,
                    "ok": result.ok,
                }
            )
            if not result.ok:
                failures.append(
                    {"rank": rank, "theta": [i + 1 for i in result.theta], "failures": result.failures}
                )
            if result.complement_words:
                fixtures.append(
                    {
                        "rank": rank,
                        "theta": [i + 1 for i in result.theta],
                        "w1_words": [[i + 1 for i in w] for w in result.complement_words],
                    }
                )
    summary = {
        "cases": len(cases),
        "passes": sum(1 for c in cases if c["ok"]),
        "failures": failures,
        "nontrivial_complements": fixtures,
        "details": cases,
    }
    if failures:
        raise EngineRejection(
            "certification failed: " + json.dumps(failures, sort_keys=True)
        )
    return summary


def _atlas_points(grid, rank, budget):
    _require_keys(grid, allowed={"q_exps", "torsions"}, required={"q_exps", "torsions"}, where="grid")
    for key in ("q_exps", "torsions"):
        if not isinstance(grid[key], list):
            raise SchemaError(f"grid.{key} must be a list of rationals")
    q_values = [parse_rational(x) for x in grid["q_exps"]]
    t_values = [parse_rational(x) for x in grid["torsions"]]
    per_coord = [(q, t) for q in q_values for t in t_values]
    total = len(per_coord) ** rank if per_coord else 0
    if total > budget:
        raise EngineRejection(f"grid has {total} points, over the {budget} budget")
    return list(iproduct(per_coord, repeat=rank))


def run_atlas(problem: Problem) -> dict:
    if problem.levi:
        raise SchemaError("atlas sweeps principal series; drop the levi key")
    if "grid" not in problem.raw:
        raise SchemaError("atlas needs a grid")
    budget = problem.raw.get("budget", ATLAS_BUDGET)
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise SchemaError("budget must be a positive integer")
    build_cartan(problem.family, problem.rank)  # rejects a bad rank before the grid is expanded
    points = _atlas_points(problem.raw["grid"], problem.rank, budget)
    ctx = _build_context(problem)

    rows = []
    for point in points:
        q = [p[0] for p in point]
        t = [p[1] for p in point]
        lam = param_from_coords(ctx.rs, (), q, t, basis="fundamental-weight")
        report = decide_ps_unramified(ctx, lam)
        has_wall = bool(report.walls)
        r_order = report.r.order
        if report.verdict == "irreducible":
            reason = "irreducible"
        elif has_wall and r_order > 1:
            reason = "wall+r-group"
        elif has_wall:
            reason = "wall"
        else:
            reason = "r-group"
        rows.append({
            "q": [str(x) for x in q],
            "t": [str(x) for x in t],
            "verdict": report.verdict,
            "reason_class": reason,
            "r_order": r_order,
            "wall_count": len(report.walls),
        })
    return {"rows": rows, "count": len(rows)}


def run_product_count(problem: Problem) -> dict:
    if "blocks" not in problem.raw or "factor_counts" not in problem.raw:
        raise SchemaError("product-count needs blocks and factor_counts")
    if not isinstance(problem.raw["blocks"], list):
        raise SchemaError("blocks must be a list of integer lists")
    blocks = [
        [i - 1 for i in _int_list(b, "blocks[]")] for b in problem.raw["blocks"]
    ]
    counts = _int_list(problem.raw["factor_counts"], "factor_counts")
    ctx, nu, oracle = _gps_datum(problem)
    report = decide_gps(ctx, nu, oracle)
    total = product_formula_count(ctx, blocks, counts, report)
    return {
        "count": total,
        "blocks": problem.raw["blocks"],
        "factor_counts": counts,
        "report": report.to_dict(),
    }


def run_predict(problem: Problem) -> dict:
    ctx = _build_context(problem)
    nu = _parse_character(problem.raw.get("character"), ctx.rs, ctx.theta)
    sigma_spec = problem.raw.get("sigma")
    if sigma_spec is None:
        raise SchemaError("predict needs a sigma block")
    oracle = _parse_sigma(sigma_spec, ctx)
    oracle.validate_pairs(ctx)
    pairwise_spec = problem.raw.get("pairwise")
    pairwise = None
    if pairwise_spec is not None:
        if not isinstance(pairwise_spec, list):
            raise SchemaError("pairwise must be a list")
        pairwise = {}
        for item in pairwise_spec:
            _require_keys(
                item, allowed={"blocks", "irreducible"}, required={"blocks", "irreducible"}, where="pairwise[]"
            )
            pair = _int_list(item["blocks"], "pairwise.blocks")
            if len(pair) != 2 or pair[0] == pair[1]:
                raise SchemaError("pairwise.blocks must name two distinct blocks")
            if min(pair) < 1:
                raise SchemaError("pairwise.blocks indices must be at least 1")
            if not isinstance(item["irreducible"], bool):
                raise SchemaError("pairwise.irreducible must be boolean")
            pairwise[frozenset(p - 1 for p in pair)] = item["irreducible"]
    prediction = conjecture_predict(
        ctx, nu, oracle, pairwise=pairwise, corank_all=oracle.corank_irred
    )
    return {"prediction": prediction.to_dict()}


# -- output -------------------------------------------------------------------


def envelope(problem: Problem, results: dict) -> dict:
    return {
        "input": problem.raw,
        "engine": {"name": "rgroups", "version": __version__},
        "conventions": CONVENTIONS,
        "results": results,
    }


def render_text(env: dict) -> str:
    lines = [f"rgroups {env['engine']['version']}"]
    results = env["results"]
    if "report" in results:
        rep = results["report"]
        lines.append(f"mode     : {rep['mode']}")
        lines.append(f"system   : {rep['family']}{rep['rank']}, levi {rep['theta']}")
        lines.append(f"verdict  : {rep['verdict']}")
        for reason in rep["reasons"]:
            lines.append(f"reason   : {json.dumps(reason, sort_keys=True)}")
        lines.append(f"stabilizer order {rep['stabilizer']['order']}, "
                     f"W0 {rep['w0']['order']}, R {rep['r_modified']['order']}")
        if "r_knapp_stein" in rep:
            lines.append(
                f"Knapp-Stein ladder: W0' {rep['w0_prime']['order']}, "
                f"R' {rep['r_knapp_stein']['order']}, R0 {rep['r0']['order']}"
            )
        lines.append("pairings :")
        for v in rep["values"]:
            lines.append(
                f"  {v['direction']} -> q^{v['q_exp']} torsion {v['torsion']}"
            )
        if "count" in results:
            lines.append(f"constituent count {results['count']}")
    elif "rows" in results:
        for row in results["rows"]:
            lines.append(
                f"q={row['q']} t={row['t']} {row['verdict']} ({row['reason_class']})"
            )
        lines.append(f"{results['count']} grid points")
    elif "cases" in results:
        lines.append(f"certified {results['passes']}/{results['cases']} Levi subsets")
        for fx in results["nontrivial_complements"]:
            lines.append(f"  nontrivial complement at rank {fx['rank']} theta {fx['theta']}: {fx['w1_words']}")
    elif "prediction" in results:
        lines.append(json.dumps(results["prediction"], sort_keys=True))
    elif "relative_roots" in results:
        lines.append(json.dumps(results, sort_keys=True, indent=2))
    return "\n".join(lines) + "\n"


def render_csv(env: dict) -> str:
    results = env["results"]
    if "rows" not in results:
        raise SchemaError("csv format is only defined for atlas tables")
    rows = results["rows"]
    if not rows:
        return "verdict,reason_class,r_order,wall_count\n"
    rank = len(rows[0]["q"])
    header = (
        [f"q_{i + 1}" for i in range(rank)]
        + [f"t_{i + 1}" for i in range(rank)]
        + ["verdict", "reason_class", "r_order", "wall_count"]
    )
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                row["q"]
                + row["t"]
                + [row["verdict"], row["reason_class"], str(row["r_order"]), str(row["wall_count"])]
            )
        )
    return "\n".join(lines) + "\n"


RUNNERS = {
    "decompose": run_decompose,
    "decide-ps": run_decide_ps,
    "decide-gps": run_decide_gps,
    "verify": run_verify,
    "atlas": run_atlas,
    "product-count": run_product_count,
    "predict": run_predict,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rgroups",
        description="exact decision engine for parabolic induction irreducibility",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in MODES:
        p = sub.add_parser(verb)
        p.add_argument("--input", required=True, help="JSON problem file, or - for stdin")
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="json", choices=("json", "text", "csv"))
        p.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP)
    args = parser.parse_args(argv)

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise SchemaError(f"cannot read input: {exc}") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
        problem = Problem(raw, args.verb, args.cap)
        results = RUNNERS[args.verb](problem)
        env = envelope(problem, results)
        if args.format == "json":
            payload = json.dumps(env, sort_keys=True, indent=2) + "\n"
        elif args.format == "text":
            payload = render_text(env)
        else:
            payload = render_csv(env)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise SchemaError(f"cannot write output: {exc}") from None
        else:
            sys.stdout.write(payload)
    except Exception as exc:
        # an error outside the hierarchy is an internal failure as well
        code = exc.exit_code if isinstance(exc, RGroupsError) else InvariantViolation.exit_code
        diagnostic = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
