import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgroups import cli
from rgroups.cli import MODE_KEYS, MODES, main


def run_cli(tmp_path, verb, payload, fmt="json", extra=()):
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.txt"
    infile.write_text(json.dumps(payload))
    code = main(
        [verb, "--input", str(infile), "--output", str(outfile), "--format", fmt, *extra]
    )
    text = outfile.read_text() if outfile.exists() else ""
    return code, text


def test_decompose_block_levi(tmp_path):
    code, text = run_cli(tmp_path, "decompose", {"family": "A", "rank": 3, "levi": [1, 3]})
    assert code == 0
    env = json.loads(text)
    results = env["results"]
    assert results["wm_order"] == 2
    assert results["w1_order"] == 1
    assert results["phi0"] == [[1, 2, 1]]
    assert env["input"] == {"family": "A", "rank": 3, "levi": [1, 3]}
    assert env["engine"]["name"] == "rgroups"


def test_decide_ps_quadratic(tmp_path):
    payload = {
        "family": "A",
        "rank": 1,
        "character": {"basis": "fundamental-weight", "t_part": ["1/2"]},
    }
    code, text = run_cli(tmp_path, "decide-ps", payload)
    assert code == 0
    report = json.loads(text)["results"]["report"]
    assert report["verdict"] == "reducible"
    assert report["r_modified"]["order"] == 2


def test_decide_gps_oracle_roundtrip(tmp_path):
    payload = {
        "family": "A",
        "rank": 3,
        "levi": [1, 3],
        "character": {},
        "sigma": {
            "stab_pairs": [{"word": []}, {"word": [2, 1, 3, 2]}],
            "mu_zero": [{"direction": [1, 2, 1], "value": True}],
            "corank_irred": [{"direction": [1, 2, 1], "value": True}],
        },
    }
    code, text = run_cli(tmp_path, "decide-gps", payload)
    assert code == 0
    report = json.loads(text)["results"]["report"]
    assert report["verdict"] == "irreducible"
    assert report["stabilizer"]["order"] == 2
    assert report["r_modified"]["order"] == 1


def test_decide_gps_open_stabilizer_pairs_is_engine_rejection(tmp_path, capsys):
    # {1, s1, s2} in A2 is not closed: s1 s2 is missing
    payload = {
        "family": "A",
        "rank": 2,
        "character": {},
        "sigma": {
            "stab_pairs": [{"word": []}, {"word": [1]}, {"word": [2]}],
            "mu_zero": [],
            "corank_irred": [
                {"direction": d, "value": True} for d in ([1, 0], [0, 1], [1, 1])
            ],
        },
    }
    code, text = run_cli(tmp_path, "decide-gps", payload)
    assert code == 3 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    diagnostic = json.loads(err[0])
    assert diagnostic["error"] == "EngineRejection"
    assert "not closed under composition" in diagnostic["message"]


def test_unknown_key_is_schema_error(tmp_path):
    code, _ = run_cli(tmp_path, "decompose", {"family": "A", "rank": 2, "bogus": 1})
    assert code == 2


def test_key_from_other_mode_is_schema_error(tmp_path):
    payload = {"family": "A", "rank": 2, "grid": {"q_exps": [], "torsions": []}}
    code, _ = run_cli(tmp_path, "decompose", payload)
    assert code == 2


def test_float_rational_is_schema_error(tmp_path):
    payload = {
        "family": "A",
        "rank": 1,
        "character": {"q_part": [0.5], "t_part": ["0"]},
    }
    code, _ = run_cli(tmp_path, "decide-ps", payload)
    assert code == 2


def test_mode_mismatch_is_schema_error(tmp_path):
    code, _ = run_cli(tmp_path, "decompose", {"family": "A", "rank": 2, "mode": "atlas"})
    assert code == 2


def test_missing_corank_listed_as_schema_error(tmp_path):
    payload = {
        "family": "A",
        "rank": 3,
        "levi": [1, 3],
        "character": {},
        "sigma": {
            "stab_pairs": [{"word": []}, {"word": [2, 1, 3, 2]}],
            "mu_zero": [{"direction": [1, 2, 1], "value": True}],
        },
    }
    code, _ = run_cli(tmp_path, "decide-gps", payload)
    assert code == 2  # rejection lists the uncovered root directions


def test_cap_exceeded_is_engine_rejection(tmp_path):
    code, _ = run_cli(
        tmp_path, "decompose", {"family": "E", "rank": 7}
    )
    assert code == 3  # default cap excludes the two largest exceptional groups


def test_boolean_cap_is_schema_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "decompose", {"family": "A", "rank": 2, "cap": True})
    assert code == 2  # not cap 1 and a CapExceeded
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


def test_unknown_direction_is_schema_error(tmp_path):
    payload = {
        "family": "A",
        "rank": 3,
        "levi": [1, 3],
        "character": {},
        "sigma": {
            "stab_pairs": [{"word": []}],
            "mu_zero": [{"direction": [9, 9, 9], "value": True}],
            "corank_irred": [{"direction": [1, 2, 1], "value": True}],
        },
    }
    code, _ = run_cli(tmp_path, "decide-gps", payload)
    assert code == 2


def test_atlas_rank_one_grid(tmp_path):
    payload = {
        "family": "A",
        "rank": 1,
        "grid": {"q_exps": ["-2", "-1", "0", "1", "2"], "torsions": ["0", "1/2"]},
    }
    code, text = run_cli(tmp_path, "atlas", payload)
    assert code == 0
    rows = json.loads(text)["results"]["rows"]
    assert len(rows) == 10
    walls = {(r["q"][0], r["t"][0]) for r in rows if r["reason_class"] == "wall"}
    assert walls == {("1", "0"), ("-1", "0")}
    rgroup = {(r["q"][0], r["t"][0]) for r in rows if r["reason_class"] == "r-group"}
    assert rgroup == {("0", "1/2")}
    for row in rows:
        expected = (
            "irreducible"
            if (row["q"][0], row["t"][0]) not in walls | rgroup
            else "reducible"
        )
        assert row["verdict"] == expected


def test_atlas_empty_grid(tmp_path):
    payload = {"family": "A", "rank": 1, "grid": {"q_exps": [], "torsions": []}}
    code, text = run_cli(tmp_path, "atlas", payload)
    assert code == 0
    assert json.loads(text)["results"]["rows"] == []


def test_atlas_budget_rejection(tmp_path):
    payload = {
        "family": "A",
        "rank": 2,
        "grid": {"q_exps": ["0", "1"], "torsions": ["0", "1/2"]},
        "budget": 3,
    }
    code, _ = run_cli(tmp_path, "atlas", payload)
    assert code == 3  # 16 points over the stated budget


@pytest.mark.parametrize("key", ["q_exps", "torsions"])
def test_atlas_string_grid_is_schema_error(tmp_path, capsys, key):
    grid = {"q_exps": ["0", "1"], "torsions": ["0"]}
    grid[key] = "01"  # a string would otherwise be iterated as ["0", "1"]
    code, text = run_cli(tmp_path, "atlas", {"family": "A", "rank": 1, "grid": grid})
    assert code == 2 and text == ""
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


def test_atlas_negative_rank_is_engine_rejection(tmp_path, capsys):
    payload = {"family": "A", "rank": -1, "grid": {"q_exps": [], "torsions": []}}
    code, _ = run_cli(tmp_path, "atlas", payload)
    assert code == 3  # not a ValueError from expanding the grid
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "EngineRejection"


def test_atlas_csv_format(tmp_path):
    payload = {
        "family": "A",
        "rank": 1,
        "grid": {"q_exps": ["0", "1"], "torsions": ["0"]},
    }
    code, text = run_cli(tmp_path, "atlas", payload, fmt="csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "q_1,t_1,verdict,reason_class,r_order,wall_count"
    assert lines[1] == "0,0,irreducible,irreducible,1,0"
    assert lines[2] == "1,0,reducible,wall,1,1"


def test_atlas_a2_torsion_only(tmp_path):
    from fractions import Fraction

    from conftest import get_system
    from ps_bruteforce import BruteForcePS

    payload = {
        "family": "A",
        "rank": 2,
        "grid": {"q_exps": ["0"], "torsions": ["0", "1/2", "1/3"]},
    }
    code, text = run_cli(tmp_path, "atlas", payload)
    assert code == 0
    rows = json.loads(text)["results"]["rows"]
    assert len(rows) == 9
    brute = BruteForcePS(*get_system("A", 2))
    for row in rows:
        _, r_order, walls = brute.evaluate(
            [Fraction(0), Fraction(0)], [Fraction(x) for x in row["t"]]
        )
        assert walls == 0
        expected = "r-group" if r_order > 1 else "irreducible"
        assert row["reason_class"] == expected
        assert row["r_order"] == r_order


def test_csv_rejected_outside_atlas(tmp_path):
    code, _ = run_cli(tmp_path, "decompose", {"family": "A", "rank": 2}, fmt="csv")
    assert code == 2


def test_verify_family_a3(tmp_path):
    payload = {"family": "A", "rank": 3}
    code, text = run_cli(tmp_path, "verify", payload)
    assert code == 0
    results = json.loads(text)["results"]
    assert results["cases"] == 8
    assert results["passes"] == 8
    assert results["failures"] == []


def test_verify_max_rank_sweep(tmp_path):
    payload = {"family": "A", "rank": 3, "max_rank": 3}
    code, text = run_cli(tmp_path, "verify", payload)
    assert code == 0
    results = json.loads(text)["results"]
    assert results["cases"] == 2 + 4 + 8
    assert results["passes"] == results["cases"]


def test_verify_b3(tmp_path):
    payload = {"family": "B", "rank": 3}
    code, text = run_cli(tmp_path, "verify", payload)
    assert code == 0
    results = json.loads(text)["results"]
    assert results["cases"] == 8
    assert results["passes"] == 8


def test_verify_g2(tmp_path):
    payload = {"family": "G", "rank": 2}
    code, text = run_cli(tmp_path, "verify", payload)
    assert code == 0
    results = json.loads(text)["results"]
    assert results["cases"] == 4
    assert results["passes"] == 4


def test_product_count_verb(tmp_path):
    payload = {
        "family": "A",
        "rank": 3,
        "character": {
            "basis": "fundamental-weight",
            "q_part": ["1", "1/3", "1"],
            "t_part": ["0", "0", "0"],
        },
        "blocks": [[1], [3]],
        "factor_counts": [2, 3],
    }
    code, text = run_cli(tmp_path, "product-count", payload)
    assert code == 0
    assert json.loads(text)["results"]["count"] == 6


def test_product_count_malformed_blocks_is_schema_error(tmp_path, capsys):
    payload = {
        "family": "A",
        "rank": 3,
        "levi": [1],
        "character": {},
        "sigma": {"corank_irred": [{"direction": [0, 0, 1], "value": True}]},
        "blocks": 5,
        "factor_counts": [1],
    }
    code, text = run_cli(tmp_path, "product-count", payload)
    assert code == 2 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "SchemaError"


def test_predict_verb_pairwise(tmp_path):
    payload = {
        "family": "A",
        "rank": 5,
        "levi": [1, 3, 5],
        "character": {},
        "sigma": {
            "stab_pairs": [{"word": []}],
        },
        "pairwise": [
            {"blocks": [1, 2], "irreducible": True},
            {"blocks": [1, 3], "irreducible": True},
            {"blocks": [2, 3], "irreducible": False},
        ],
    }
    code, text = run_cli(tmp_path, "predict", payload)
    assert code == 0
    prediction = json.loads(text)["results"]["prediction"]
    assert prediction["applies"] is True
    assert prediction["predicted_verdict"] == "reducible"


def test_echo_reparses_to_equivalent_run(tmp_path):
    payload = {
        "family": "B",
        "rank": 2,
        "character": {"basis": "fundamental-weight", "q_part": ["1", "0"], "t_part": ["0", "1/2"]},
    }
    code, first = run_cli(tmp_path, "decide-ps", payload)
    assert code == 0
    echoed = json.loads(first)["input"]
    code, second = run_cli(tmp_path, "decide-ps", echoed)
    assert code == 0
    assert json.loads(first)["results"] == json.loads(second)["results"]


def test_decide_gps_no_reflection_levi(tmp_path):
    # A2-type Levi inside D4: no relative reflections at all, so the whole
    # stabilizer is complement and the verdict hinges on the R-group clause
    payload = {
        "family": "D",
        "rank": 4,
        "levi": [1, 2],
        "character": {},
        "sigma": {
            "stab_pairs": [{"word": []}, {"word": [3, 2, 1, 4, 2, 1, 3, 2, 4]}],
        },
    }
    code, text = run_cli(tmp_path, "decide-gps", payload)
    assert code == 0
    report = json.loads(text)["results"]["report"]
    assert report["relative"]["phi0"] == []
    assert report["stabilizer"]["order"] == 2
    assert report["r_modified"]["order"] == 2
    assert report["verdict"] == "reducible"
    assert report["reasons"][0]["clause"] == "modified-r-group-nontrivial"
    assert report["orbit_note"]["w1_words"] == [[3, 2, 1, 4, 2, 1, 3, 2, 4]]


def test_determinism_byte_identical(tmp_path):
    payload = {
        "family": "B",
        "rank": 2,
        "character": {"basis": "fundamental-weight", "q_part": ["1", "0"], "t_part": ["0", "1/2"]},
    }
    _, first = run_cli(tmp_path, "decide-ps", payload)
    _, second = run_cli(tmp_path, "decide-ps", payload)
    assert first == second


def test_text_format_smoke(tmp_path):
    payload = {
        "family": "A",
        "rank": 1,
        "character": {"basis": "fundamental-weight", "t_part": ["1/2"]},
    }
    code, text = run_cli(tmp_path, "decide-ps", payload, fmt="text")
    assert code == 0
    assert "verdict  : reducible" in text


def test_stdin_input(tmp_path, monkeypatch, capsys):
    import io
    import sys

    payload = json.dumps({"family": "A", "rank": 2})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code = main(["decompose", "--input", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["wm_order"] == 6


def _predict_a5(pairwise):
    return {
        "family": "A",
        "rank": 5,
        "levi": [1, 3, 5],
        "character": {},
        "sigma": {"stab_pairs": [{"word": []}]},
        "pairwise": pairwise,
    }


def test_predict_block_index_below_one_is_schema_error(tmp_path, capsys):
    pairwise = [{"blocks": [0, 1], "irreducible": True}]
    code, _ = run_cli(tmp_path, "predict", _predict_a5(pairwise))
    assert code == 2  # not silently block -1
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


def test_predict_block_index_past_the_levi_is_named(tmp_path, capsys):
    pairwise = [{"blocks": [1, 7], "irreducible": True}]
    code, _ = run_cli(tmp_path, "predict", _predict_a5(pairwise))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "EngineRejection"
    assert "index 7 out of range" in err["message"]


def test_verify_boolean_max_rank_is_schema_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "verify", {"family": "A", "rank": 2, "max_rank": True})
    assert code == 2  # not max_rank 1
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


# -- the exit-code contract ---------------------------------------------------


def test_unwritable_output_is_schema_error(tmp_path, capsys):
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps({"family": "A", "rank": 2}))
    target = tmp_path / "missing" / "out.json"
    code = main(["decompose", "--input", str(infile), "--output", str(target)])
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    diagnostic = json.loads(err[0])
    assert diagnostic["error"] == "SchemaError"
    assert diagnostic["message"].startswith("cannot write output: ")


def test_unexpected_exception_is_exit_four(tmp_path, capsys, monkeypatch):
    def broken(problem):
        raise KeyError("boom")

    monkeypatch.setitem(cli.RUNNERS, "decompose", broken)
    code, text = run_cli(tmp_path, "decompose", {"family": "A", "rank": 2})
    assert code == 4 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "KeyError", "exit_code": 4, "message": "'boom'"}


BLOCK_SWAP_SIGMA = {
    "stab_pairs": [{"word": []}, {"word": [2, 1, 3, 2]}],
    "mu_zero": [{"direction": [1, 2, 1], "value": True}],
    "corank_irred": [{"direction": [1, 2, 1], "value": True}],
}

TEXT_CASES = {
    "decompose": ({"family": "A", "rank": 3, "levi": [1, 3]}, '  "wm_order": 2'),
    "decide-ps": (
        {"family": "B", "rank": 3,
         "character": {"basis": "fundamental-weight", "t_part": ["0", "0", "1/2"]}},
        "stabilizer order 12, W0 6, R 2",
    ),
    "decide-gps": (
        {"family": "A", "rank": 3, "levi": [1, 3], "character": {}, "sigma": BLOCK_SWAP_SIGMA},
        "Knapp-Stein ladder: W0' 2, R' 1, R0 1",
    ),
    "verify": ({"family": "B", "rank": 3}, "certified 8/8 Levi subsets"),
    "atlas": (
        {"family": "A", "rank": 1, "grid": {"q_exps": ["0", "1"], "torsions": ["0", "1/2"]}},
        "4 grid points",
    ),
    "product-count": (
        {"family": "A", "rank": 3, "levi": [1], "character": {},
         "sigma": {"corank_irred": [{"direction": [0, 0, 1], "value": True}]},
         "blocks": [[1], [3]], "factor_counts": [1, 2]},
        "constituent count 2",
    ),
    "predict": (
        {"family": "A", "rank": 3, "levi": [1, 3], "character": {}, "sigma": BLOCK_SWAP_SIGMA},
        '"predicted_verdict": "irreducible"',
    ),
}


@pytest.mark.parametrize("verb", MODES)
def test_text_format_every_verb(tmp_path, verb):
    payload, expected = TEXT_CASES[verb]
    code, text = run_cli(tmp_path, verb, payload, fmt="text")
    assert code == 0
    assert text.startswith("rgroups ")
    assert expected in text


# -- fuzzed problem shapes ------------------------------------------------------


def _ints(low, high):
    # Sampled rather than st.integers: Hypothesis mixes constants found in the
    # loaded modules into integer draws, so derandomized examples would then
    # depend on the hash seed.
    return st.sampled_from(range(low, high + 1))


_junk = st.one_of(
    st.none(), st.booleans(), _ints(-2, 3), st.just(0.5),
    st.sampled_from(["", "x", "1/2", "1/0"]), st.just([]), st.just({}),
)


def _weighted(*weighted):
    """One of the strategies, drawn with the given integer weights."""
    pool = [strategy for strategy, weight in weighted for _ in range(weight)]
    return st.sampled_from(pool).flatmap(lambda strategy: strategy)


def _mostly(valid):
    """``valid`` four times in five, junk otherwise."""
    return _weighted((valid, 4), (_junk, 1))


_exact = st.one_of(st.sampled_from(["0", "1", "-1", "1/2", "1/3"]), _ints(-2, 2))
_rational = _weighted((_exact, 4), (st.sampled_from(["x", "1/0", 0.5]), 1))


def _values(rank):
    """Value strategies per problem key, mostly well formed for ``rank``."""
    index = _mostly(_ints(1, rank))
    vector = st.one_of(_mostly(st.lists(_rational, min_size=rank, max_size=rank)),
                       st.lists(_rational, max_size=4))
    character = _mostly(st.fixed_dictionaries({}, optional={
        "basis": st.sampled_from(["simple-root", "fundamental-weight", "fundamental-weight", "other"]),
        "q_part": vector, "t_part": vector,
    }))
    flags = _mostly(st.lists(st.fixed_dictionaries({
        "direction": _mostly(st.lists(_ints(0, 2), min_size=rank, max_size=rank)),
        "value": _mostly(st.booleans()),
    }), max_size=3))
    return {
        "levi": _mostly(st.lists(_ints(1, rank), unique=True, max_size=rank)),
        "cap": _mostly(st.sampled_from([2, 50, 10**6])),
        "character": character,
        "sigma": _mostly(st.fixed_dictionaries({}, optional={
            "stab_pairs": _mostly(st.lists(st.fixed_dictionaries(
                {"word": _mostly(st.lists(index, max_size=4))}, optional={"twist": character},
            ), max_size=3)),
            "mu_zero": flags,
            "corank_irred": flags,
        })),
        "grid": _mostly(st.fixed_dictionaries({
            "q_exps": _mostly(st.lists(_rational, max_size=2)),
            "torsions": _mostly(st.lists(_rational, max_size=2)),
        })),
        "budget": _mostly(_ints(0, 20)),
        "max_rank": _mostly(_ints(-1, 3)),
        "blocks": _mostly(st.lists(_mostly(st.lists(index, max_size=2)), max_size=3)),
        "factor_counts": _mostly(st.lists(_ints(0, 3), max_size=3)),
        "pairwise": _mostly(st.lists(st.fixed_dictionaries({
            "blocks": _mostly(st.lists(_ints(0, 4), max_size=3)),
            "irreducible": _mostly(st.booleans()),
        }), max_size=3)),
        "mode": st.sampled_from(MODES),
        "unknown": _junk,
    }


def _problems(verb):
    """Problems for ``verb`` on A1-A3, B2 and G2: mostly the keys the verb
    takes with well-formed values, sometimes a foreign key, a bad family or
    rank, or no object at all."""

    def shape(system):
        family, rank = system
        values = _values(rank)
        keys = {"levi", "cap"} | MODE_KEYS[verb]  # drawn in sorted order, not set order
        well_formed = st.fixed_dictionaries(
            {"family": st.just(family), "rank": st.just(rank)},
            optional={key: values[key] for key in sorted(keys)},
        )
        foreign = st.fixed_dictionaries(
            {"family": st.sampled_from([family, "", "AB", "b", 3, None]),
             "rank": st.sampled_from([rank, "2", True, None, 0, -1, 9])},
            optional={key: values[key] for key in sorted(keys | {"mode", "unknown"})},
        )
        return _weighted((well_formed, 3), (foreign, 1))

    systems = st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)])
    return _weighted((systems.flatmap(shape), 9), (_junk, 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(MODES).flatmap(lambda verb: st.tuples(st.just(verb), _problems(verb))),
       st.sampled_from(["json", "json", "text", "csv"]))
def test_fuzzed_problems_keep_the_exit_contract(case, fmt):
    verb, problem = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(problem))), \
            redirect_stdout(out), redirect_stderr(err):
        code = main([verb, "--input", "-", "--format", fmt])
    seen = (verb, fmt, problem, code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), seen
    assert "Traceback" not in err.getvalue(), seen
    if code:
        assert len(lines) == 1 and json.loads(lines[0])["exit_code"] == code, seen
    else:
        assert lines == [] and out.getvalue(), seen
