"""One-shot baseline table: the columns of the ROADMAP baseline, timed with
the same median-of-repetitions code as ``setup_s``.

The quadratic character is the unitary one with every torsion coordinate
1/2 in the fundamental-weight basis.  This is a report, not a workload:
``python3 bench/run.py --baseline`` prints it, and per-change runs skip it.
"""

from __future__ import annotations

import json

from common import interpreter_facts, median_time

SYSTEMS = (("F", 4), ("D", 5), ("B", 5))
REPS = 3


def baseline_row(rg, family, rank) -> dict:
    rs = rg.build_root_system(rg.build_cartan(family, rank))
    gen_s, weyl = median_time(lambda: rg.generate_weyl(rs), REPS)
    analyze_s, ctx = median_time(lambda: rg.analyze(rs, weyl, ()), REPS)
    lam = rg.param_from_coords(rs, (), ["0"] * rank, ["1/2"] * rank, basis="fundamental-weight")
    ps_s, _ = median_time(lambda: rg.decide_ps_unramified(ctx, lam), REPS)
    gps_s, _ = median_time(lambda: rg.decide_gps(ctx, lam), REPS)
    levis = [[i for i in range(rank) if mask >> i & 1] for mask in range(2**rank)]
    certify_s, _ = median_time(lambda: [rg.certify(rs, weyl, theta) for theta in levis], REPS)
    return {
        "system": f"{family}{rank}",
        "generate_weyl_ms": gen_s * 1e3,
        "analyze_empty_ms": analyze_s * 1e3,
        "decide_ps_quadratic_ms": ps_s * 1e3,
        "decide_gps_quadratic_ms": gps_s * 1e3,
        "certify_all_levis_ms": certify_s * 1e3,
    }


def print_baseline(rg) -> None:
    rows = [baseline_row(rg, family, rank) for family, rank in SYSTEMS]
    print(f"median of {REPS} runs each")
    print("| system | `generate_weyl` | `analyze(θ=∅)` | `decide_ps` (quadratic) "
          "| `decide_gps` (quadratic) | `certify` all Levis |")
    print("|---|---|---|---|---|---|")
    for row in rows:
        cells = [f"{v:.0f} ms" for k, v in row.items() if k != "system"]
        print(f"| {row['system']} | " + " | ".join(cells) + " |")
    print(json.dumps({"baseline": rows, **interpreter_facts(None)}, sort_keys=True))
