"""The ``cli-cold`` workload: one-shot ``python -m rgroups.cli`` runs.

Each invocation is a fresh interpreter, one at a time, so no module-level
cache can carry over from one call to the next, as for a real one-shot
user.  Invocations pass only ``--input``, ``--output`` and ``--format``;
inputs and outputs live in a temporary directory inside the checkout.

A cycle holds eleven invocations in seeded order: ``verify`` on B4, C4, D5
and F4; ``decompose`` on a seeded Levi of D5 and of F4; ``decide-ps`` and
``decide-gps`` at theta = {} on F4 and B5 with q-regular characters (the
singular ones are covered by the in-process workloads, and a singular B5
``decide-gps`` alone takes seconds); and a 512-point B3 ``atlas`` in CSV.
The timed window runs whole cycles.
"""

from __future__ import annotations

import csv
import io
import json
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from common import (
    GRID_Q,
    GRID_T,
    ROOT,
    SPANS_DIR,
    child_env,
    fractions,
    is_q_regular,
    load_brute_force,
    median_time,
    peak_rss_mb,
)
from spans import NullRecorder, Recorder, layer_metrics
from workloads import Result, collect_failures, end_to_end, report_lines, run_ops, timed_window

VERIFY_SYSTEMS = (("B", 4), ("C", 4), ("D", 5), ("F", 4))
DECOMPOSE_SYSTEMS = (("D", 5), ("F", 4))
DECIDE_SYSTEMS = (("F", 4), ("F", 4), ("B", 5))
IMPORT_REPS = 9
CHILD_TIMEOUT_S = 120
REPLAY_NAMES = ("Problem", "RUNNERS", "run_atlas", "envelope", "render_csv", "render_text",
                "DEFAULT_GROUP_CAP")


def hash_seeds(seed: int):
    """Two distinct PYTHONHASHSEED values for the determinism check."""
    first = 1 + abs(seed) % 100_000
    return first, first + 100_000


def import_ms(stderr: str) -> float:
    """Sum of the top-level cumulative times of ``-X importtime``."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit() and not parts[2].startswith("  "):
            total += int(parts[1])
    return total / 1e3


class CliCold:
    name = "cli-cold"
    trace_cycles_per_s = 0.05

    def __init__(self, rg):
        self.rg = rg
        self._systems = {}
        self._brute = {}

    def system(self, family, rank):
        if (family, rank) not in self._systems:
            rs = self.rg.build_root_system(self.rg.build_cartan(family, rank))
            self._systems[(family, rank)] = (rs, self.rg.generate_weyl(rs))
        return self._systems[(family, rank)]

    # -- inputs ------------------------------------------------------------------

    def _character(self, rng, family, rank):
        rs, _ = self.system(family, rank)
        q = [rng.choice(GRID_Q) for _ in range(rank)]
        while not is_q_regular(rs, q):
            q = [rng.choice(GRID_Q) for _ in range(rank)]
        t = [rng.choice(GRID_T) for _ in range(rank)]
        return {"basis": "fundamental-weight", "q_part": q, "t_part": t}

    def cycles(self, tmp, rng):
        n = 0
        while True:
            ops = [("verify", {"family": f, "rank": r}, "json") for f, r in VERIFY_SYSTEMS]
            for f, r in DECOMPOSE_SYSTEMS:
                levi = sorted(rng.sample(range(1, r + 1), rng.randint(1, r - 1)))
                ops.append(("decompose", {"family": f, "rank": r, "levi": levi}, "json"))
            for verb in ("decide-ps", "decide-gps"):
                for f, r in DECIDE_SYSTEMS:
                    ops.append((verb, {"family": f, "rank": r, "character": self._character(rng, f, r)}, "json"))
            grid = {"q_exps": rng.sample(GRID_Q, 4), "torsions": rng.sample(GRID_T, 2)}
            ops.append(("atlas", {"family": "B", "rank": 3, "grid": grid}, "csv"))
            rng.shuffle(ops)
            cycle = []
            for verb, problem, fmt in ops:
                path = tmp / f"op{n}.json"
                path.write_text(json.dumps(problem), encoding="utf-8")
                cycle.append((verb, problem, fmt, path, tmp / f"op{n}.out"))
                n += 1
            yield cycle

    # -- running -------------------------------------------------------------------

    @staticmethod
    def invoke(op, hash_seed, importtime=False):
        """Run one CLI subprocess; returns (exit code, output bytes, stderr)."""
        verb, _problem, fmt, path, out = op
        flags = ["-X", "importtime"] if importtime else []
        argv = [sys.executable, *flags, "-m", "rgroups.cli", verb,
                "--input", str(path), "--output", str(out), "--format", fmt]
        if out.exists():
            out.unlink()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(hash_seed),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        data = out.read_bytes() if out.exists() else b""
        return proc.returncode, data, err.decode("utf-8", "replace")

    def import_setup_s(self, hash_seed):
        argv = [sys.executable, "-c", "import rgroups.cli"]
        env = child_env(hash_seed)
        run = lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S)
        run()  # compile bytecode once, as an installed package would have it
        return median_time(run, IMPORT_REPS)[0]

    def timed(self, seed, seconds) -> Result:
        first, second = hash_seeds(seed)
        tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
        try:
            setup_s = self.import_setup_s(first)
            cycles = self.cycles(Path(tmp), random.Random(f"{self.name}:{seed}"))
            run = lambda _state, op: self.invoke(op, first)
            records, elapsed = timed_window(run, None, cycles, seconds)
            rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
            failures = collect_failures(records, self.check)
            differing = 0
            for i, rec in enumerate(records):
                if rec.result is None:
                    continue
                again = self.invoke(rec.op, second)
                if again[:2] != rec.result[:2]:
                    differing += 1
                    failures.setdefault(i, f"output differs under PYTHONHASHSEED {first} and {second}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        metrics = end_to_end(records, elapsed, setup_s, rss)
        lines = report_lines(records, elapsed, f"fresh-process import rgroups.cli, median of {IMPORT_REPS}",
                             metrics, failures)
        lines.append(f"  determinism  {differing} differing outputs over {len(records)} reruns")
        return Result(len(records), failures, metrics, lines, self.properties(records, differing))

    def traced(self, seed, seconds) -> Result:
        """Each invocation of the first cycles as a subprocess (with
        ``-X importtime``), then replayed in-process untraced and traced;
        both replays must reproduce the subprocess output byte for byte."""
        from rgroups import cli

        first, _ = hash_seeds(seed)
        n_cycles = max(1, round(seconds * self.trace_cycles_per_s))
        tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
        try:
            cycles = self.cycles(Path(tmp), random.Random(f"{self.name}:{seed}"))
            ops = [op for _, cycle in zip(range(n_cycles), cycles) for op in cycle]
            records = run_ops(lambda _s, op: self.invoke(op, first, importtime=True), None, ops)
            failures = collect_failures(records, self.check)
            absent = [n for n in REPLAY_NAMES if not hasattr(cli, n)]
            rec = Recorder()
            overhead = 0.0
            if not absent:
                start = perf_counter()
                plain = run_ops(lambda _s, op: self._replay(cli, op, NullRecorder()), None, ops)
                untraced_s = perf_counter() - start
                traced = []
                with rec.installed():
                    start = perf_counter()
                    for i, op in enumerate(ops):
                        rec.op = i
                        traced += run_ops(lambda _s, op: self._replay(cli, op, rec), None, [op])
                    traced_s = perf_counter() - start
                overhead = traced_s / untraced_s
                for i, r in enumerate(records):
                    replays = (plain[i], traced[i])
                    error = next((x.error for x in replays if x.error), None)
                    if error or (r.result and not plain[i].result == traced[i].result == r.result[1]):
                        failures.setdefault(i, error or "in-process replay differs from the subprocess output")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        ok = [r.result for r in records if r.result is not None]
        metrics = layer_metrics(rec, {
            "cli.startup.ms": sum(import_ms(res[2]) for res in ok),
            "cli.output_bytes": sum(len(res[1]) for res in ok),
            "trace.overhead": overhead,
        })
        rec.write(SPANS_DIR / f"spans-{self.name}-{seed}.jsonl")
        lines = [
            f"  traced invocations {len(ops)} (subprocess with -X importtime, then in-process replays)",
            f"  replay overhead    x{overhead:.3f}" if not absent else f"  replay absent: {absent}",
            f"  absent             {rec.absent or 'none'}",
        ]
        return Result(len(ops), failures, metrics, lines, self.properties(records, None))

    @staticmethod
    def _replay(cli, op, rec):
        """Problem -> runner -> envelope -> render, as ``cli.main`` does."""
        verb, _problem, fmt, path, _out = op
        with rec.region("cli.parse"):
            raw = json.loads(path.read_text(encoding="utf-8"))
            problem = cli.Problem(raw, verb, cli.DEFAULT_GROUP_CAP)
        with rec.region("cli.run"):
            results = cli.run_atlas(problem) if verb == "atlas" else cli.RUNNERS[verb](problem)
        with rec.region("cli.render"):
            env = cli.envelope(problem, results)
            if fmt == "json":
                payload = json.dumps(env, sort_keys=True, indent=2) + "\n"
            elif fmt == "text":
                payload = cli.render_text(env)
            else:
                payload = cli.render_csv(env)
        return payload.encode("utf-8")

    # -- checks --------------------------------------------------------------------

    def brute(self, family, rank):
        if (family, rank) not in self._brute:
            self._brute[(family, rank)] = load_brute_force()(*self.system(family, rank))
        return self._brute[(family, rank)]

    def check(self, rec):
        verb, problem, _fmt, _path, _out = rec.op
        code, data, err = rec.result
        if code != 0:
            return f"{verb} exited {code}: {err.strip().splitlines()[-1:]}"
        family, rank = problem["family"], problem["rank"]
        if verb == "atlas":
            return self._check_atlas(family, rank, data)
        results = json.loads(data)["results"]
        if verb == "verify":
            if not results["passes"] == results["cases"] == 2**rank:
                return f"verify {family}{rank}: {results['passes']}/{results['cases']} of {2**rank}"
        elif verb == "decompose":
            if results["wm_order"] != results["w0_order"] * results["w1_order"]:
                return f"decompose {problem}: |W_M| != |W0| * |W1|"
        else:
            report = results["report"]
            char = problem["character"]
            verdict, r_order, _walls = self.brute(family, rank).evaluate(
                fractions(char["q_part"]), fractions(char["t_part"]))
            got = (report["verdict"], report["r_modified"]["order"])
            if verb == "decide-ps" and got != (verdict, r_order):
                return f"decide-ps {family}{rank} {char}: engine {got}, brute force {(verdict, r_order)}"
            if verb == "decide-gps" and got[0] != verdict:
                return f"decide-gps {family}{rank} {char}: engine {got[0]}, brute force {verdict}"
        return None

    def _check_atlas(self, family, rank, data):
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != 512:
            return f"atlas returned {len(rows)} rows, expected 512"
        brute = self.brute(family, rank)
        for row in rows:
            q = fractions(row[f"q_{i + 1}"] for i in range(rank))
            t = fractions(row[f"t_{i + 1}"] for i in range(rank))
            verdict, r_order, _walls = brute.evaluate(q, t)
            if (row["verdict"], int(row["r_order"])) != (verdict, r_order):
                return f"atlas row {dict(row)}: brute force {(verdict, r_order)}"
        return None

    def properties(self, records, differing) -> dict:
        """``differing`` is None where no determinism reruns were made."""
        out_bytes = Counter()
        for r in records:
            if r.result is not None:
                out_bytes[r.op[0]] += len(r.result[1])
        return {
            "invocations_per_verb": dict(Counter(r.op[0] for r in records)),
            "cli.output_bytes": dict(out_bytes),
            "differing_outputs": differing,
        }
