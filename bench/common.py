"""Helpers shared by the workloads: paths, input grids, timing and the
brute-force reference evaluator."""

from __future__ import annotations

import importlib.util
import os
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BRUTE_PATH = ROOT / "tests" / "ps_bruteforce.py"
SPANS_DIR = ROOT / ".bench-out"

# The acceptance-grid values: q-exponents and torsion phases per coordinate.
GRID_Q = ("-2", "-1", "-1/2", "0", "1/2", "1", "2")
GRID_T = ("0", "1/2", "1/3")
NONZERO_Q = tuple(q for q in GRID_Q if q != "0")


def missing_sources() -> list:
    return [str(p.relative_to(ROOT)) for p in (SRC / "rgroups" / "__init__.py", BRUTE_PATH)
            if not p.is_file()]


def import_engine():
    """Import the checkout's own ``rgroups`` package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rgroups

    if Path(rgroups.__file__).resolve().parent != SRC / "rgroups":
        raise ImportError(f"imported rgroups from {rgroups.__file__}, not from {SRC}")
    return rgroups


def load_brute_force():
    """The test suite's independent evaluator, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("ps_bruteforce", BRUTE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BruteForcePS


def child_env(hash_seed) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def median_time(fn, reps: int):
    """Median wall time of ``reps`` calls, and the last call's result."""
    times = []
    result = None
    for _ in range(reps):
        result = None  # drop the previous result before building the next
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_summary(latencies) -> dict:
    """Median and, with at least 100 samples, the 90th percentile (ms)."""
    ms = [x * 1e3 for x in latencies]
    out = {"n": len(ms), "p50": statistics.median(ms)}
    if len(ms) >= 100:
        out["p90"] = statistics.quantiles(ms, n=10)[8]
    return out


def is_q_regular(rs, q_coords) -> bool:
    """No positive root is orthogonal to the q-part given in fundamental-weight
    coordinates, so the character's stabilizer in W is trivial."""
    a = rs.cartan.matrix
    n = rs.rank
    # Symmetrizer d_i with d_i A_ij = d_j A_ji; (alpha_i, alpha_i) is 2 d_i.
    d = [None] * n
    d[0] = Fraction(1)
    while any(x is None for x in d):
        for i in range(n):
            for j in range(n):
                if d[i] is not None and d[j] is None and a[i][j]:
                    d[j] = d[i] * a[i][j] / a[j][i]
    q = [Fraction(x) for x in q_coords]
    # (q, beta) = sum_i b_i (q, alpha_i) = sum_i b_i q_i d_i.
    return all(
        sum(b * qi * di for b, qi, di in zip(root, q, d)) != 0
        for root in rs.roots[: rs.n_pos]
    )


def fractions(coords):
    return [Fraction(x) for x in coords]


def interpreter_facts(seed) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"
