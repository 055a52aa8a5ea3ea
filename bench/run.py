"""rgroups benchmark: three workloads against the public API and the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload ps-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one report
    python3 bench/run.py --baseline                # one-shot baseline table

Workloads (one closed-loop client each, no thread pool, no ``--jobs``):

* ``ps-sweep``: one F4 context, then a seeded stream of unramified
  characters through ``param_from_coords`` + ``decide_ps_unramified``.
  The full-W stabilizer scan and the R-group splitting checks do the work.
* ``gps-mix``: warm contexts for several Levis, then a seeded stream of
  ``decide_gps`` calls: oracle-free on the B4 torus, explicit oracles on
  single-node Levis (``validate_pairs``), and small D4/D5 Levis with a
  nontrivial complement W_M^1.
* ``cli-cold``: one ``python -m rgroups.cli`` subprocess at a time, each in
  a fresh interpreter: ``verify``, ``decompose``, ``decide-ps``,
  ``decide-gps`` and a 512-point ``atlas``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: ``ops_per_s``, ``op_p50_ms``, ``setup_s``
and ``peak_rss_mb``.  The lines before it report, per workload, the same
metrics plus ``op_p90_ms`` (at least 100 operations) and ``fail_share``,
and a ``properties`` line describing the inputs.  With ``--trace 1`` a
separate traced run wraps each module's public functions and reports the
per-layer metrics listed in ``BENCHMARK.json``.

Every verdict is checked outside the timed window: principal-series
verdicts and R-group orders against the brute-force evaluator of the test
suite, proper-Levi verdicts by invariance under W_M^1, CLI outputs by their
own bookkeeping and by byte-identical reruns under another hash seed.  A
wrong verdict makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import interpreter_facts, missing_sources, import_engine, ROOT

WORKLOADS = ("ps-sweep", "gps-mix", "cli-cold")


def make_workload(name, rg):
    if name == "cli-cold":
        from clicold import CliCold

        return CliCold(rg)
    from workloads import GpsMix, PsSweep

    return {"ps-sweep": PsSweep, "gps-mix": GpsMix}[name](rg)


def expected_metrics(trace: bool) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name, rg, seed, seconds, trace):
    workload = make_workload(name, rg)
    result = workload.traced(seed, seconds) if trace else workload.timed(seed, seconds)
    print(f"workload {name}  seed {seed}  seconds {seconds}  {'traced' if trace else 'timed'}")
    for line in result.lines:
        print(line)
    for i, message in sorted(result.failures.items()):
        print(f"  FAILED op {i}: {message}")
    print("properties " + json.dumps({**result.properties, **interpreter_facts(seed)}, sort_keys=True))
    return result


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS stays its own."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        *lines, last = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines), flush=True)
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            sys.stderr.write(f"bench: {name} exited {proc.returncode} without a result\n")
            return 2
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the one-shot baseline table instead of running a workload")
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        sys.stderr.write(f"bench: run from a checkout of the repository; missing {missing}\n")
        return 2
    if args.workload == "all" and not args.baseline:
        return run_all(args)
    rg = import_engine()
    if args.baseline:
        from baseline import print_baseline

        print_baseline(rg)
        return 0

    result = run_one(args.workload, rg, args.seed, args.seconds, bool(args.trace))
    wanted = expected_metrics(bool(args.trace))
    if set(result.metrics) != wanted:
        sys.stderr.write(f"bench: metrics {sorted(result.metrics)} != BENCHMARK.json {sorted(wanted)}\n")
        return 2
    failed = len(result.failures)
    print(json.dumps({"correct": failed == 0, "attempted": result.attempted, "failed": failed,
                      "metrics": result.metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
