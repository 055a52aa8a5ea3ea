"""The two in-process workloads, ``ps-sweep`` and ``gps-mix``.

Both are one closed-loop client in this process: the next operation starts
when the previous one has returned.  Operations come in fixed-composition
blocks whose order and coordinates the seed draws, and the timed window
runs whole blocks until ``--seconds`` have passed, so every run measures
the same mix of operation kinds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from common import (
    GRID_Q,
    GRID_T,
    NONZERO_Q,
    ROOT,
    SPANS_DIR,
    fractions,
    is_q_regular,
    latency_summary,
    load_brute_force,
    median_time,
    peak_rss_mb,
)
from spans import Recorder, layer_metrics

SETUP_REPS = 5


@dataclass
class Result:
    """Outcome of one run, timed or traced."""

    attempted: int
    failures: dict  # op index -> message
    metrics: dict  # name -> {"value": ..., "unit": ...}
    lines: list  # human-readable report
    properties: dict


@dataclass
class Record:
    op: tuple
    result: tuple | None
    error: str | None
    latency: float


def run_ops(run, state, ops):
    """Run operations one after another, recording errors as results."""
    records = []
    for op in ops:
        start = perf_counter()
        try:
            result, error = run(state, op), None
        except Exception as exc:  # any escape is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(op, result, error, perf_counter() - start))
    return records


def timed_window(run, state, blocks, seconds):
    """Whole blocks until ``seconds`` have passed; returns records and the
    elapsed time."""
    records = []
    start = perf_counter()
    for block in blocks:
        records.extend(run_ops(run, state, block))
        if perf_counter() - start >= seconds:
            break
    return records, perf_counter() - start


def end_to_end(records, elapsed, setup_s, rss_mb) -> dict:
    lat = latency_summary([r.latency for r in records])
    return {
        "ops_per_s": {"value": len(records) / elapsed, "unit": "1/s"},
        "op_p50_ms": {"value": lat["p50"], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def report_lines(records, elapsed, setup_note, metrics, failures) -> list:
    lat = latency_summary([r.latency for r in records])
    n = len(records)
    lines = [
        f"  ops_per_s    {metrics['ops_per_s']['value']:.3f} 1/s  ({n} ops in {elapsed:.2f} s)",
        f"  op_p50_ms    {lat['p50']:.2f} ms  (n={n})",
    ]
    if "p90" in lat:
        lines.append(f"  op_p90_ms    {lat['p90']:.2f} ms  (n={n})")
    else:
        lines.append(f"  op_p90_ms    not reported: {n} < 100 samples")
    lines += [
        f"  setup_s      {metrics['setup_s']['value']:.4f} s  ({setup_note})",
        f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB",
        f"  fail_share   {len(failures) / max(n, 1):.4f}  ({len(failures)}/{n})",
    ]
    return lines


def collect_failures(records, check) -> dict:
    failures = {}
    for i, rec in enumerate(records):
        message = rec.error if rec.error else check(rec)
        if message:
            failures[i] = message
    return failures


class InProcessWorkload:
    """Set-up once, then a stream of engine calls in this process."""

    name = ""
    trace_blocks_per_s = 0.0  # blocks traced per second of --seconds

    def __init__(self, rg):
        self.rg = rg

    # subclasses provide setup, blocks, run, checker and properties

    def timed(self, seed: int, seconds: float) -> Result:
        setup_s, state = median_time(self.setup, SETUP_REPS)
        blocks = self.blocks(state, random.Random(f"{self.name}:{seed}"))
        records, elapsed = timed_window(self.run, state, blocks, seconds)
        rss = peak_rss_mb()
        failures = collect_failures(records, self.checker(state))
        metrics = end_to_end(records, elapsed, setup_s, rss)
        lines = report_lines(records, elapsed, f"median of {SETUP_REPS} set-ups", metrics, failures)
        return Result(len(records), failures, metrics, lines, self.properties(state, records))

    def traced(self, seed: int, seconds: float) -> Result:
        """The first blocks of the seeded stream, once untraced and once
        traced, each on its own fresh set-up."""
        n_blocks = max(1, round(seconds * self.trace_blocks_per_s))
        state = self.setup()
        blocks = self.blocks(state, random.Random(f"{self.name}:{seed}"))
        ops = [op for _, block in zip(range(n_blocks), blocks) for op in block]
        start = perf_counter()
        plain = run_ops(self.run, state, ops)
        untraced_s = perf_counter() - start
        state = None

        rec = Recorder()
        with rec.installed():
            rec.op = "setup"
            state = self.setup()
            traced = []
            start = perf_counter()
            for i, op in enumerate(ops):
                rec.op = i
                traced.extend(run_ops(self.run, state, [op]))
            traced_s = perf_counter() - start
        failures = collect_failures(traced, self.checker(state))
        for i, (a, b) in enumerate(zip(traced, plain)):
            if i not in failures and a.result != b.result:
                failures[i] = f"traced result {a.result} differs from untraced {b.result}"
        overhead = traced_s / untraced_s
        metrics = layer_metrics(rec, {"trace.overhead": overhead})
        spans_path = SPANS_DIR / f"spans-{self.name}-{seed}.jsonl"
        rec.write(spans_path)
        lines = [
            f"  traced ops   {len(ops)} (set-up traced once)",
            f"  ops_per_s    untraced {len(ops) / untraced_s:.3f}, traced {len(ops) / traced_s:.3f}"
            f" (overhead x{overhead:.3f})",
            f"  absent       {rec.absent or 'none'}",
            f"  spans        {len(rec.spans)} written to {spans_path.relative_to(ROOT)}",
        ]
        return Result(len(ops), failures, metrics, lines, self.properties(state, traced))

    def checker(self, state):
        """A function from a record to an error message, or None."""
        raise NotImplementedError


def stab_histogram(orders, group_order) -> dict:
    """Counts of |Stab|/|W|, keyed by the exact fraction."""
    counts = Counter(orders)
    return {f"{k}/{group_order}": counts[k] for k in sorted(counts)}


# -- ps-sweep ---------------------------------------------------------------


class PsSweep(InProcessWorkload):
    """F4 principal series: ``param_from_coords`` + ``decide_ps_unramified``
    per grid point, exactly what ``atlas`` does per point.

    A block of ten points holds six q-regular characters (trivial
    stabilizer), two with one node zeroed and two with three nodes zeroed
    (stabilizers of order 12 to 48).  The median then falls on a regular
    point and the 90th percentile on a big-stabilizer point, so a stabilizer
    shortcut moves the first while the second stays.
    """

    name = "ps-sweep"
    trace_blocks_per_s = 0.2
    KINDS = ("regular",) * 6 + ("one-zero",) * 2 + ("three-zero",) * 2

    def setup(self):
        rg = self.rg
        rs = rg.build_root_system(rg.build_cartan("F", 4))
        weyl = rg.generate_weyl(rs)
        return rg.analyze(rs, weyl, ())

    def blocks(self, ctx, rng):
        rank = ctx.rs.rank
        while True:
            block = []
            for kind in self.KINDS:
                t = [rng.choice(GRID_T) for _ in range(rank)]
                if kind == "regular":
                    q = [rng.choice(GRID_Q) for _ in range(rank)]
                    while not is_q_regular(ctx.rs, q):
                        q = [rng.choice(GRID_Q) for _ in range(rank)]
                else:
                    q = [rng.choice(NONZERO_Q) for _ in range(rank)]
                    for j in rng.sample(range(rank), 1 if kind == "one-zero" else 3):
                        q[j] = t[j] = "0"
                block.append((kind, tuple(q), tuple(t)))
            rng.shuffle(block)
            yield block

    def run(self, ctx, op):
        _kind, q, t = op
        lam = self.rg.param_from_coords(ctx.rs, (), q, t, basis="fundamental-weight")
        report = self.rg.decide_ps_unramified(ctx, lam)
        return report.verdict, report.r.order, report.stab.order

    def checker(self, ctx):
        brute = load_brute_force()(ctx.rs, ctx.weyl)

        def check(rec):
            _kind, q, t = rec.op
            verdict, r_order, _walls = brute.evaluate(fractions(q), fractions(t))
            if (verdict, r_order) != rec.result[:2]:
                return f"F4 q={q} t={t}: engine {rec.result[:2]}, brute force {(verdict, r_order)}"
            return None

        return check

    def properties(self, ctx, records) -> dict:
        orders = [r.result[2] for r in records if r.result]
        return {
            "kinds": dict(Counter(r.op[0] for r in records)),
            "regular_share": sum(1 for o in orders if o == 1) / max(len(orders), 1),
            "stab_over_W": stab_histogram(orders, len(ctx.weyl)),
        }


# -- gps-mix ------------------------------------------------------------------

# Levi subsets by name: (family, rank, 0-based theta).
TORUS = "B4"
EXPLICIT_LEVIS = {"B4{4}": ("B", 4, (3,)), "F4{1}": ("F", 4, (0,)), "D5{1}": ("D", 5, (0,))}
D4_SMALL = {"D4{1,2}": ("D", 4, (0, 1)), "D4{2,3}": ("D", 4, (1, 2)), "D4{2,4}": ("D", 4, (1, 3))}
D5_SMALL = {
    "D5{1,2}": ("D", 5, (0, 1)), "D5{2,3}": ("D", 5, (1, 2)),
    "D5{3,4}": ("D", 5, (2, 3)), "D5{3,5}": ("D", 5, (2, 4)),
}
GPS_LEVIS = {TORUS: ("B", 4, ()), **EXPLICIT_LEVIS, **D4_SMALL, **D5_SMALL}


class GpsMix(InProcessWorkload):
    """``decide_gps`` on warm contexts, three kinds per block of 40:

    * 20 oracle-free calls on the B4 torus (stabilizer, all_twists_trivial,
      Knapp-Stein ladder), characters drawn from the whole grid;
    * 14 explicit-oracle calls on the D4/D5 Levis with a nontrivial
      complement W_M^1, pairs spanning W_M with trivial twists;
    * 6 explicit-oracle calls on single-node Levis of B4, F4 and D5 whose
      trivial-twist pairs span all of W_M (order 48) or a subgroup of
      order 24; these are dominated by ``validate_pairs``.

    Sorted by cost today the block reads D4 Levis (0-17%), torus
    (17-67%), D5 Levis (67-85%), single-node Levis (85-100%): the median
    falls inside the torus calls and the 90th percentile inside the
    single-node calls.
    """

    name = "gps-mix"
    trace_blocks_per_s = 0.05

    def setup(self):
        rg = self.rg
        systems = {}
        contexts = {}
        for key, (family, rank, theta) in GPS_LEVIS.items():
            if (family, rank) not in systems:
                rs = rg.build_root_system(rg.build_cartan(family, rank))
                systems[(family, rank)] = (rs, rg.generate_weyl(rs))
            rs, weyl = systems[(family, rank)]
            contexts[key] = rg.analyze(rs, weyl, theta)
        return contexts

    @staticmethod
    def _words(elements):
        return tuple(w.word for w in elements)

    def _fixtures(self, contexts):
        """Pair words per explicit Levi: all of W_M, and for the single-node
        Levis also the first subgroup of order 24 found from two generators."""
        whole = {k: self._words(contexts[k].wm.reps) for k in (*EXPLICIT_LEVIS, *D4_SMALL, *D5_SMALL)}
        half = {}
        for key in EXPLICIT_LEVIS:
            ctx = contexts[key]
            reps = ctx.wm.reps
            half[key] = next(
                self._words(sub)
                for i in range(1, len(reps))
                for j in range(i + 1, len(reps))
                if len(sub := ctx.weyl.closure([reps[i], reps[j]])) == 24
            )
        return whole, half

    def blocks(self, contexts, rng):
        whole, half = self._fixtures(contexts)

        def real_exponent(key, zero=False):
            _family, rank, theta = GPS_LEVIS[key]
            return tuple("0" if zero or i in theta else rng.choice(GRID_Q) for i in range(rank))

        d4, d5 = list(D4_SMALL), list(D5_SMALL)
        index = 0
        while True:
            block = [
                ("torus", TORUS, tuple(rng.choice(GRID_Q) for _ in range(4)),
                 tuple(rng.choice(GRID_T) for _ in range(4)))
                for _ in range(20)
            ]
            for k in range(7):
                for names in (d4, d5):
                    key = names[(index * 7 + k) % len(names)]
                    block.append(("complement", key, real_exponent(key), whole[key]))
            for key in EXPLICIT_LEVIS:
                block.append(("single-node", key, real_exponent(key, zero=rng.random() < 0.5), whole[key]))
                block.append(("single-node", key, real_exponent(key), half[key]))
            rng.shuffle(block)
            index += 1
            yield block

    def _oracle_datum(self, ctx, op):
        """The exponent, the explicit oracle and its co-rank-one flags."""
        rg = self.rg
        _kind, _key, q, words = op
        rank = ctx.rs.rank
        nu = rg.param_from_coords(ctx.rs, ctx.theta, q, ("0",) * rank, basis="fundamental-weight")
        trivial = rg.trivial_param(ctx.rs, ctx.theta)
        pairs = [(ctx.weyl.element_from_word(w), trivial) for w in words]
        rd = ctx.rd
        corank = {r: not rg.is_wall(rg.eval_on_coroot(rd, nu, rd.rays[r])) for r in sorted(rd.phi0)}
        oracle = rg.explicit_oracle(pairs, mu_zero={r: True for r in corank}, corank_irred=corank)
        return nu, oracle, corank

    def run(self, contexts, op):
        ctx = contexts[op[1]]
        if op[0] == "torus":
            lam = self.rg.param_from_coords(ctx.rs, (), op[2], op[3], basis="fundamental-weight")
            report = self.rg.decide_gps(ctx, lam)
        else:
            nu, oracle, _corank = self._oracle_datum(ctx, op)
            report = self.rg.decide_gps(ctx, nu, oracle)
        return report.verdict, report.r.order, report.stab.order

    def checker(self, contexts):
        torus = contexts[TORUS]
        brute = load_brute_force()(torus.rs, torus.weyl)
        rg = self.rg

        def check(rec):
            kind, key = rec.op[:2]
            verdict, r_order, _stab = rec.result
            if kind == "torus":
                expected = brute.evaluate(fractions(rec.op[2]), fractions(rec.op[3]))[0]
                if verdict != expected:
                    return f"B4 torus q={rec.op[2]} t={rec.op[3]}: engine {verdict}, brute force {expected}"
                return None
            ctx = contexts[key]
            nu, oracle, corank = self._oracle_datum(ctx, rec.op)
            rule = "irreducible" if r_order == 1 and all(corank.values()) else "reducible"
            if verdict != rule:
                return f"{key}: verdict {verdict} but |R|={r_order}, flags {corank}"
            spans_wm = len(rec.op[3]) == len(ctx.wm.reps)
            if spans_wm and all(x == "0" for x in rec.op[2]) and all(corank.values()):
                if r_order != len(ctx.dec.complement):
                    return f"{key}: |R|={r_order} but |W_M^1|={len(ctx.dec.complement)}"
            for w1 in ctx.dec.complement:
                if w1.is_identity():
                    continue
                nu_t, oracle_t = rg.translate_datum(ctx, w1, nu, oracle)
                moved = rg.decide_gps(ctx, nu_t, oracle_t).verdict
                if moved != verdict:
                    return f"{key}: verdict {verdict} becomes {moved} under W_M^1 element {w1.word}"
            return None

        return check

    def properties(self, contexts, records) -> dict:
        ok = [r for r in records if r.result]
        torus = [r.result[2] for r in ok if r.op[0] == "torus"]
        explicit = Counter(
            f"{len(r.op[3])}/{len(contexts[r.op[1]].wm.reps)}" for r in records if r.op[0] != "torus"
        )
        return {
            "kinds": dict(Counter(r.op[0] for r in records)),
            "torus_regular_share": sum(1 for o in torus if o == 1) / max(len(torus), 1),
            "torus_stab_over_W": stab_histogram(torus, len(contexts[TORUS].weyl)),
            "explicit_pairs_over_WM": dict(sorted(explicit.items())),
        }
