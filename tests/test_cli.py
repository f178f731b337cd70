import json
import os
import subprocess
import sys
import time

import pytest

from dunklcm import cli, complexgroups, invariance, restriction, rootsystems
from dunklcm.cli import main
from dunklcm.polynomials import solve_affine
from dunklcm.restriction import _load_catalog_rows
from dunklcm.rootsystems import enumerate_parabolic_strata, parabolic_stratum, root_system
from rootsystem_reference import subspace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    stream = captured.out if captured.out.strip() else captured.err
    return code, json.loads(stream)


def test_check_invariant(capsys):
    code, out = run(capsys, "check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2")
    assert code == 0
    assert out["invariant"] is True
    assert out["equations"] == ["2*c = 1"]


def test_check_not_invariant(capsys):
    code, out = run(capsys, "check", "--family", "F4", "--subgraph", "A1A1", "--c1", "1/2", "--c2", "1/3")
    assert code == 1
    assert out["invariant"] is False
    assert sorted(out["equations"]) == ["2*c1 = 1", "2*c2 = 1"]


def test_check_symbolic(capsys):
    code, out = run(capsys, "check", "--family", "B", "--rank", "4", "--subgraph", "Bl:l=2", "--symbolic")
    assert code == 0
    assert out["equations"] == ["2*c1+2*c2 = 1"]
    assert out["status"] == "family"
    assert out["values"]["c1"] == "-c2+1/2"


def test_check_direct_routes_agree(capsys):
    code, out = run(capsys, "check", "--family", "B", "--rank", "3", "--subgraph", "A1:2", "--c1", "1/3", "--c2", "1/2", "--direct")
    assert code == 0
    assert out["routes_agree"] is True
    assert "seed" not in out
    assert out["stratum"]["gamma0"] == [3]


def test_check_needs_values(capsys):
    code, out = run(capsys, "check", "--family", "A", "--rank", "3", "--subgraph", "A1")
    assert code == 2
    assert "error" in out


def test_unknown_subgraph_type(capsys):
    code, out = run(capsys, "check", "--family", "A", "--rank", "3", "--subgraph", "Z9", "--symbolic")
    assert code == 2
    assert "error" in out


def test_orbit_cap_exit(capsys):
    # no command walks an orbit, so there is no cap to give: the flag is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["check", "--family", "E7", "--subgraph", "A1^3:2", "--c", "1/2", "--orbit-cap", "10"])
    assert exc.value.code == 2
    code, out = run(capsys, "check", "--family", "E7", "--subgraph", "A1^3:2", "--c", "1/2")
    assert code == 0
    assert out["invariant"] is True


def _no_walk(*args, **kwargs):
    raise AssertionError("a command walked an orbit")


@pytest.fixture
def no_orbit_walks(monkeypatch):
    """Make every orbit walk of a flat, real or complex, fail the test."""
    monkeypatch.setattr(rootsystems, "orbit_of_subspace", _no_walk)
    monkeypatch.setattr(complexgroups, "subspace_orbit", _no_walk)


@pytest.mark.parametrize("argv", [
    ["check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2"],
    ["check", "--group", "G(3,3,3)", "--blocks", "1,2", "--c0", "1/2"],
], ids=["real", "complex"])
def test_orbit_cap_does_not_stop_the_direct_route(capsys, no_orbit_walks, argv):
    # the orbits have 6 and 9 members; the direct test walks none of them, so no cap can stop it
    code, out = run(capsys, *argv, "--direct")
    assert code == 0
    assert out["direct_invariant"] is True and out["routes_agree"] is True


def test_no_command_walks_an_orbit(capsys, no_orbit_walks):
    code, out = run(capsys, "verify", "gauge", "--family", "E8")
    assert code == 0
    assert len(out["strata"]) == 40 and out["violations"] == 0
    code, out = run(capsys, "check", "--family", "E7", "--subgraph", "A1^3:2", "--c", "1/2")
    assert code == 0
    assert out["stratum"]["gamma0"] == [2, 5, 7]
    code, out = run(capsys, "solve", "--family", "D", "--rank", "6", "--subgraph", "A5:2")
    assert code == 0
    assert out["values"] == {"c": "1/6"}
    code, out = run(capsys, "catalog")
    assert code == 0
    assert len(out["rows"]) == len(_load_catalog_rows())


@pytest.mark.parametrize("command,extra", [
    ("check", ["--symbolic"]),
    ("solve", []),
    ("restrict", []),
])
@pytest.mark.parametrize("family,rank", [("F4", "3"), ("H3", "4"), ("I2(5)", "7")])
def test_rank_of_a_fixed_rank_family_must_match(capsys, command, extra, family, rank):
    code, out = run(capsys, command, "--family", family, "--rank", rank, "--subgraph", "A1", *extra)
    assert code == 2
    assert "error" in out


@pytest.mark.parametrize("family,rank", [("F4", "4"), ("H3", "3"), ("I2(5)", "2"), ("E", "7"), ("E7", "7")])
def test_matching_rank_of_a_fixed_rank_family(capsys, family, rank):
    code, out = run(capsys, "solve", "--family", family, "--rank", rank, "--subgraph", "A1")
    assert code == 0
    assert out["stratum"]["rank"] == int(rank)


def test_bad_vertex_token(capsys):
    code, out = run(capsys, "check", "--family", "A", "--rank", "3", "--subgraph", "verts:1,x", "--c", "1/2")
    assert code == 2
    assert out["error"] == "subgraph 'verts:1,x': vertex 'x' is not an integer"


def test_repeated_vertex_is_a_usage_error(capsys):
    # a repeated vertex names the same stratum as the list without it, so it is a slip, not a request
    code, out = run(capsys, "solve", "--family", "A", "--rank", "3", "--subgraph", "verts:1,2,1")
    assert code == 2
    assert out["error"] == "subgraph 'verts:1,2,1': vertex 1 is repeated"


def test_check_complex_group(capsys):
    code, out = run(capsys, "check", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "1/2")
    assert code == 0
    assert out["equations"] == ["2*c0 = 1"]
    code, _ = run(capsys, "check", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "1/3")
    assert code == 1
    # --seed is accepted and has no effect
    code, out = run(capsys, "check", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "1/2", "--direct", "--seed", "7")
    assert code == 0
    assert out["routes_agree"] is True
    assert "seed" not in out


def test_solve_zeros_in_d(capsys):
    code, out = run(capsys, "solve", "--family", "D", "--rank", "4", "--subgraph", "Dp:p=3")
    assert code == 0
    assert out["status"] == "unique"
    assert out["values"] == {"c": "1/4"}


@pytest.mark.parametrize("subgraph", ["Dp:p=1", "A1^2:k=2,m=1,l=1"])
@pytest.mark.parametrize("argv", [
    ["check", "--c", "1/2", "--direct", "--seed", "1"],
    ["restrict"],
    ["solve"],
])
def test_one_zero_in_d_is_a_usage_error(capsys, argv, subgraph):
    # x_i = 0 lies on the mirrors x_i = +-x_j only where x_j = 0 too
    code, out = run(capsys, *argv, "--family", "D", "--rank", "4", "--subgraph", subgraph)
    assert code == 2
    assert "l=1" in out["error"]


def test_two_zeros_in_d(capsys):
    code, out = run(capsys, "check", "--family", "D", "--rank", "4", "--subgraph", "Dp:p=2", "--c", "1/2", "--direct")
    assert code == 0
    assert out["invariant"] is out["direct_invariant"] is out["routes_agree"] is True
    assert out["equations"] == ["2*c = 1"]


@pytest.mark.parametrize("argv,value", [
    (["--family", "A", "--rank", "3", "--subgraph", "A1:k=2,m=-1", "--c", "1/2"], "m=-1"),
    (["--family", "A", "--rank", "3", "--subgraph", "A1:k=0,m=2", "--c", "1/2"], "k=0"),
    (["--family", "B", "--rank", "3", "--subgraph", "Bl:l=-1", "--c1", "1/2", "--c2", "1/2"], "l=-1"),
    # blocks of one coordinate and no zeros name nothing, which is not the whole space
    (["--family", "B", "--rank", "4", "--subgraph", "A2:k=3", "--c1", "1/2", "--c2", "1/2"], '--subgraph ""'),
    (["--family", "B", "--rank", "4", "--subgraph", "A1^2:m=2", "--c1", "1/2", "--c2", "1/2"], '--subgraph ""'),
])
def test_negative_counts_and_empty_blocks_are_usage_errors(capsys, argv, value):
    code, out = run(capsys, "check", *argv)
    assert code == 2
    assert value in out["error"]


def test_solve_complex(capsys):
    code, out = run(capsys, "solve", "--group", "G(4,2,3)", "--blocks", "2", "--zeros", "1")
    assert code == 0
    assert out["status"] == "unique"
    assert out["equations"] == ["2*c0 = 1", "2*c1 = 1"]
    assert out["values"] == {"c0": "1/2", "c1": "1/2"}
    assert out["free"] == []


def test_solve_complex_family(capsys):
    code, out = run(capsys, "solve", "--group", "G(4,2,3)", "--zeros", "2")
    assert code == 0
    assert out["status"] == "family"
    assert out["equations"] == ["4*c0+2*c1 = 1"]
    assert out["values"] == {"c0": "-1/2*c1+1/4"}
    assert out["free"] == ["c1"]


def test_solve_complex_inconsistent(capsys):
    # one zero coordinate of G(m,m,N) is never invariant: its form is 0
    code, out = run(capsys, "solve", "--group", "G(3,3,3)", "--zeros", "1")
    assert code == 1
    assert out["status"] == "inconsistent"
    assert out["equations"] == ["0 = 1"]


def test_check_complex_symbolic_solves(capsys):
    code, out = run(capsys, "check", "--group", "G(4,2,2)", "--blocks", "2", "--eps", "1", "--symbolic")
    assert code == 0
    assert out["status"] == "family"
    assert out["values"] == {"c0_odd": "1/2"}
    assert out["free"] == ["c0", "c1"]


@pytest.mark.parametrize("eps,same", [("5", "1"), ("-1", "3")])
def test_eps_is_printed_mod_m(capsys, eps, same):
    # eps = 5 and eps = -1 name the flats of eps = 1 and eps = 3 in G(4,2,2)
    argv = ["check", "--group", "G(4,2,2)", "--blocks", "2", "--c0=1/2", "--c0-odd=1/3", "--direct"]
    got, want = (run(capsys, *argv, f"--eps={e}") for e in (eps, same))
    assert got[1]["blocks"] == want[1]["blocks"] == {"q": 1, "r": 2, "eps": int(same)}
    assert got == want


@pytest.mark.parametrize("flat", [
    ["--group", "G(4,2,3)", "--blocks", "2", "--zeros", "1"],
    ["--group", "G(4,2,2)", "--blocks", "2", "--eps", "1"],
    ["--group", "G(3,3,3)", "--zeros", "1"],
])
def test_solve_and_check_symbolic_name_the_same_flat(capsys, flat):
    # solve --group used not to say which blocks and zeros it solved
    checked, solved = (run(capsys, *command, *flat) for command in (["check", "--symbolic"], ["solve"]))
    assert checked[0] == solved[0]
    # the same group, blocks, zeros, equations and solution
    assert {**checked[1], "command": "solve"} == solved[1]


def test_restrict_solves_and_reports(capsys):
    code, out = run(capsys, "restrict", "--family", "E8", "--subgraph", "D4")
    assert code == 0
    assert out["multiplicities"] == {"c": "1/6"}
    cfg = out["configuration"]
    assert cfg["size"] == 24
    assert cfg["multiplicity_multiset"] == {"1/6": 12, "4/3": 12}
    assert out["conservation_defect"] == "0"
    assert out["radial_operator"].startswith("Delta_pi")
    assert "Delta" in out["potential_operator"]


def test_restrict_whole_space_symbolic(capsys):
    code, out = run(capsys, "restrict", "--family", "A", "--rank", "2")
    assert code == 0
    assert out["status"] == "unconstrained"
    assert out["configuration"]["multiplicity_multiset"] == {"c": 3}


def test_restrict_force_gate(capsys):
    code, out = run(capsys, "restrict", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/3")
    assert code == 1
    assert "force" in out["error"]
    code, out = run(capsys, "restrict", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/3", "--force")
    assert code == 0
    assert out["configuration"]["multiplicity_multiset"] == {"1/3": 1, "2/3": 2}


def test_catalog_command(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code = main(["catalog", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(target.read_text())["rows"]
    assert len(rows) == 41
    stored = {r["index"]: r for r in _load_catalog_rows()}
    assert all(r["dim"] == stored[r["index"]]["dim"] and r["mults"] == stored[r["index"]]["mults"] for r in rows)


@pytest.mark.parametrize("where", ["missing/x.json", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, where):
    target = str(tmp_path / where)
    code, out = run(capsys, "solve", "--family", "A", "--rank", "3", "--subgraph", "A1", "--out", target)
    assert code == 2
    assert "internal" not in out
    assert out["error"].startswith(f"cannot write --out {target!r}")


@pytest.mark.parametrize("argv", [
    ["catalog", "--seed", "9"],
    ["solve", "--family", "A", "--rank", "3", "--subgraph", "A1", "--seed", "2"],
    ["restrict", "--family", "A", "--rank", "3", "--subgraph", "A1", "--seed", "2"],
], ids=["catalog", "solve", "restrict"])
def test_commands_without_randomness_reject_seed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_jobs_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_commutativity(capsys):
    code, out = run(capsys, "verify", "commutativity", "--family", "G2", "--c1", "1/2", "--c2", "2/3", "--degree", "2")
    assert code == 0
    assert out["violations"] == 0


def test_verify_commutativity_seeded_samples_repeat(capsys):
    args = ["verify", "commutativity", "--family", "A", "--rank", "2", "--samples", "2", "--degree", "2", "--seed", "5"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_gauge_single_stratum(capsys):
    code, out = run(capsys, "verify", "gauge", "--family", "B", "--rank", "3", "--subgraph", "A1:1")
    assert code == 0
    assert out["strata"][0]["defects"] == 0


def test_verify_restriction(capsys):
    code, out = run(capsys, "verify", "restriction", "--family", "A", "--rank", "3", "--subgraph", "A1", "--degree", "4")
    assert code == 0


def test_verify_restriction_reaches_e6_a2_at_degree_four(capsys):
    # the closed-form Laplacian brings this from seconds to a fraction of one
    code, out = run(capsys, "verify", "restriction", "--family", "E6", "--subgraph", "A2", "--degree", "4")
    golden = next(row for row in _load_catalog_rows() if (row["family"], row["type"]) == ("E6", "A2"))
    assert code == 0
    assert out["failing_degrees"] == []
    assert out["degrees"] == [2, 4]
    assert out["multiplicities"] == {"c": golden["c"]} == {"c": "1/3"}


def test_verify_deformed(capsys):
    code, out = run(capsys, "verify", "deformed", "--family", "A", "--rank", "2", "--k", "1", "--l", "2", "--degree", "2")
    assert code == 0
    # k != l on B3, at weights on the invariance locus of A1 (2*c1 = 1)
    code, out = run(capsys, "verify", "deformed", "--family", "B", "--rank", "3", "--subgraph", "A1",
                    "--k", "1", "--l", "2", "--degree", "1", "--c1", "1/2", "--c2", "1/3")
    assert code == 0
    assert out["powers"] == [1, 2]
    assert out["violations"] == 0
    assert out["restriction_failing_degrees"] == []


def test_verify_catalog_golden_size_note(capsys, tmp_path):
    rows = _load_catalog_rows()
    rows[0] = dict(rows[0], size=rows[0]["size"] + 1)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"rows": rows}))
    code, out = run(capsys, "verify", "catalog", "--golden", str(golden))
    assert code == 0  # dim and multiset still match
    assert len(out["size_diffs"]) == 1
    assert out["size_diffs"][0]["index"] == rows[0]["index"]


def test_verify_catalog_golden_mismatch(capsys, tmp_path):
    rows = _load_catalog_rows()
    rows[3] = dict(rows[3], dim=rows[3]["dim"] + 1)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"rows": rows}))
    code, out = run(capsys, "verify", "catalog", "--golden", str(golden))
    assert code == 1
    assert out["matched"] == len(rows) - 1


def test_float_siblings(capsys):
    code, out = run(capsys, "check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2", "--float")
    assert code == 0
    assert out["multiplicities"]["c~float"] == 0.5


def test_pretty_output(capsys):
    code = main(["check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2", "--pretty"])
    text = capsys.readouterr().out
    assert code == 0
    assert "invariant" in text and "{" not in text.splitlines()[0]


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_malformed_orbit_cap_env(capsys, monkeypatch, raw):
    # nothing reads the variable any more, so no value of it fails a command
    monkeypatch.setenv("DUNKLCM_ORBIT_CAP", raw)
    code, out = run(capsys, "check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2")
    assert code == 0
    assert out["invariant"] is True


def test_unknown_weight_name(capsys):
    code, out = run(capsys, "check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2", "--c1", "7")
    assert code == 2
    assert "c1" in out["error"]
    code, out = run(capsys, "verify", "restriction", "--family", "H3", "--subgraph", "A1", "--mult", "k=1/2")
    assert code == 2
    assert "k" in out["error"]


@pytest.mark.parametrize("argv,name", [
    (["check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2", "--mult", "c=1/3"], "c"),
    (["check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--mult", "c=1/3", "--mult", "c=1/2"], "c"),
    (["verify", "restriction", "--family", "B", "--rank", "3", "--subgraph", "A1", "--c2", "1/2",
      "--mult", "c2=1/2"], "c2"),
    (["check", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "1/2", "--mult", "c0=1/3"], "c0"),
    (["check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2", "--c", "1/3"], "c"),
    (["check", "--family", "B", "--rank", "3", "--subgraph", "A1", "--c1", "1/2", "--c1", "1/2", "--c2", "1/3"], "c1"),
    (["restrict", "--family", "F4", "--subgraph", "A1", "--c1", "1/2", "--c2", "1/3", "--c2", "1/4"], "c2"),
    (["check", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "1/2", "--c0", "1/3"], "c0"),
    (["check", "--group", "G(4,4,2)", "--blocks", "2", "--c0", "1/2", "--c0-odd", "1/9", "--c0-odd", "1/5"],
     "c0_odd"),
], ids=["flag-and-mult", "mult-twice", "same-value-twice", "group", "c-twice", "c1-twice", "c2-twice",
        "c0-twice", "c0-odd-twice"])
def test_weight_given_twice_is_a_usage_error(capsys, argv, name):
    # the later value used to override the earlier one without a word
    code, out = run(capsys, *argv)
    assert code == 2
    assert out["error"] == f"weight {name} is given more than once"


def test_verify_deformed_has_no_omega_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "deformed", "--family", "A", "--rank", "3", "--omega", "banana"])
    assert exc.value.code == 2
    assert "--omega" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,name", [
    ("--c", "5", "c"),
    ("--c1", "7", "c1"),
    ("--mult", "c2=3", "c2"),
    ("--c0-odd", "1/7", "c0_odd"),
])
def test_unknown_complex_weight_name(capsys, flag, value, name):
    code, out = run(capsys, "check", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "1/2", flag, value)
    assert code == 2
    assert f"{name} for G(3,3,3)" in out["error"]


@pytest.mark.parametrize("argv", [
    ["check", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "abc"],
    ["check", "--group", "G(3,2,3)", "--blocks", "2", "--c0", "1/2"],
    ["check", "--group", "G(3,3,3)", "--blocks", "2,2", "--c0", "1/2"],
    ["solve", "--group", "G(3,3,3)", "--blocks", "2,2"],
    ["check", "--family", "Q", "--subgraph", "A1", "--c", "1/2"],
    # suites that would check nothing
    ["verify", "restriction", "--family", "B", "--rank", "3", "--subgraph", "A1", "--degree", "1"],
    ["verify", "commutativity", "--family", "A", "--rank", "3", "--samples", "0"],
    ["verify", "commutativity", "--family", "A", "--rank", "3", "--degree", "-1"],
    ["verify", "deformed", "--family", "A", "--rank", "3", "--degree", "-1"],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert "internal" not in out


@pytest.mark.parametrize("k,l,flag", [("-1", "2", "--k"), ("0", "0", "--k"), ("1", "0", "--l")])
def test_deformed_powers_below_one_are_usage_errors(capsys, k, l, flag):
    code, out = run(capsys, "verify", "deformed", "--family", "B", "--rank", "3", "--k", k, "--l", l)
    assert code == 2
    assert f"needs {flag} >= 1" in out["error"]


def test_deformed_equal_powers_without_a_stratum_are_a_usage_error(capsys):
    # [H_2, H_2] vanishes at every weight, so the run would check nothing
    code, out = run(capsys, "verify", "deformed", "--family", "B", "--rank", "3", "--k", "2", "--l", "2")
    assert code == 2
    assert "checks nothing" in out["error"]
    # on a stratum the restriction identity is still checked
    code, out = run(capsys, "verify", "deformed", "--family", "B", "--rank", "3", "--k", "2", "--l", "2",
                    "--subgraph", "A1", "--degree", "1", "--c1", "1/2", "--c2", "1/3")
    assert code == 0
    assert out["violations"] == 0 and out["restriction_failing_degrees"] == []


@pytest.mark.parametrize("family", ["H3", "F4", "G2", "I2(5)", "E6"])
def test_deformed_refuses_groups_that_do_not_permute_coordinates(capsys, family):
    # H_k is W-invariant only under signed permutations, so these runs reported false violations
    start = time.monotonic()
    code, out = run(capsys, "verify", "deformed", "--family", family, "--k", "1", "--l", "2", "--degree", "2",
                    "--seed", "2")
    assert code == 2
    assert out["error"].endswith(f"{family} does not")
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_deformed_samples_weights_on_the_stratum_locus(capsys, seed):
    # A1 in A3 is invariant only at c = 1/2, where verify restriction passes too
    argv = ["--family", "A", "--rank", "3", "--subgraph", "A1", "--degree", "2"]
    code, out = run(capsys, "verify", "deformed", *argv, "--seed", seed)
    assert code == 0
    assert out["multiplicities"] == {"c": "1/2"}
    assert out["restriction_failing_degrees"] == []
    assert run(capsys, "verify", "restriction", *argv)[1]["multiplicities"] == {"c": "1/2"}


def test_deformed_samples_only_the_free_weights(capsys):
    # A1 in B3 pins c1 = 1/2 and leaves c2 free, which the seed draws
    argv = ["verify", "deformed", "--family", "B", "--rank", "3", "--subgraph", "A1", "--degree", "1"]
    draws = set()
    for seed in ("0", "1", "2", "3"):
        code, out = run(capsys, *argv, "--seed", seed)
        assert code == 0 and out["restriction_failing_degrees"] == []
        assert out["multiplicities"]["c1"] == "1/2"
        draws.add(out["multiplicities"]["c2"])
    assert len(draws) > 1


def test_deformed_on_a_stratum_without_invariant_weights_exits_3(capsys):
    # A1*A2 in A4 needs 2c = 1 and 3c = 1
    argv = ["--family", "A", "--rank", "4", "--subgraph", "A1A2", "--degree", "2"]
    for suite in ("deformed", "restriction"):
        code, out = run(capsys, "verify", suite, *argv)
        assert code == 3
        assert out == {"suite": suite, "error": "no invariant multiplicities"}


def test_consecutive_calls_share_no_arguments(capsys):
    argv = ["check", "--family", "A", "--rank", "3", "--subgraph", "A1"]
    assert run(capsys, *argv, "--mult", "c=1/2")[0] == 0
    code, out = run(capsys, *argv)
    assert code == 2
    assert "provide multiplicity values" in out["error"]


def test_unreadable_golden_file_is_a_usage_error(capsys, tmp_path):
    code, out = run(capsys, "verify", "catalog", "--golden", str(tmp_path / "missing.json"))
    assert code == 2
    assert "missing.json" in out["error"]


def test_internal_value_error_exits_4(capsys, monkeypatch):
    def planted(flat):
        raise ValueError("planted fault")

    monkeypatch.setattr(invariance, "condition_equations", planted)
    code, out = run(capsys, "solve", "--family", "A", "--rank", "3", "--subgraph", "A1")
    assert code == 4
    assert out["internal"] is True
    assert "planted fault" in out["error"]


def test_gauge_off_the_locus_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "criterion_invariant", lambda stratum, mults: False)
    code, out = run(capsys, "verify", "gauge", "--family", "B", "--rank", "3", "--subgraph", "A1:1")
    assert code == 4
    assert out["internal"] is True
    assert "off the invariance locus" in out["error"]


def test_verify_commutativity_uses_given_complex_weights(capsys):
    code, out = run(capsys, "verify", "commutativity", "--group", "G(4,2,3)", "--c0", "1/2", "--degree", "1")
    assert code == 0
    assert [s["values"] for s in out["samples"]] == [{"c0": "1/2"}]
    code, out = run(capsys, "verify", "commutativity", "--group", "G(3,3,3)", "--c1", "9", "--degree", "1")
    assert code == 2
    assert "c1" in out["error"]


@pytest.mark.parametrize("argv,flags", [
    (["--family", "A", "--rank", "3", "--subgraph", "A1", "--c1", "1/3"], "--c1"),
    (["--group", "G(4,2,3)", "--blocks", "1,2", "--c2", "1/3"], "--c2"),
    (["--family", "A", "--rank", "3", "--subgraph", "A1", "--direct"], "--direct"),
], ids=["family-weight", "group-weight", "direct"])
def test_symbolic_rejects_weights_and_direct(capsys, argv, flags):
    code, out = run(capsys, "check", *argv, "--symbolic")
    assert code == 2
    assert out["error"].endswith(f"got {flags}")


GOLDEN_ROW = {"index": 7, "family": "E8", "type": "A1", "gamma0": [1], "dim": 7, "size": 91,
              "mults": {"1": 28, "1/2": 63}}


@pytest.mark.parametrize("command", [["catalog"], ["verify", "catalog"]], ids=["catalog", "verify-catalog"])
@pytest.mark.parametrize("fault,message", [
    ({"index": 1, "type": "A1"}, "catalog row 1 in {path!r} lacks family, gamma0"),
    ({"family": "Q8"}, "catalog row 7 in {path!r}: unknown family 'Q8'"),
    ({"gamma0": [9]}, "catalog row 7 in {path!r}: simple root index 8 out of range"),
    ({"family": "F4"}, "catalog row 7 in {path!r}: catalog stratum A1 in F4 does not pin the multiplicity"),
    ({"family": "F4", "gamma0": [1, 3], "type": "A1^2"},
     "catalog row 7 in {path!r}: catalog stratum A1^2 in F4 does not pin the multiplicity"),
    ({"gamma0": [], "type": ""}, "catalog row 7 in {path!r}: catalog stratum  in E8 does not pin the multiplicity"),
    ({"family": "E6", "type": "D4", "gamma0": [1, 3]},
     "catalog row 7 in {path!r}: type 'D4' is not 'A2', the type of gamma0 [1, 3] in E6"),
    ({"gamma0": [True]}, "catalog row 7 in {path!r}: family must be a name and gamma0 a list of vertex numbers"),
    ({"gamma0": [1, 1]}, "catalog row 7 in {path!r}: gamma0 [1, 1] repeats a vertex"),
], ids=["missing-keys", "unknown-family", "gamma0-out-of-range", "free-weight", "two-weights", "no-conditions",
        "type-of-another-stratum", "boolean-vertex", "repeated-vertex"])
def test_golden_row_faults_are_usage_errors(capsys, tmp_path, command, fault, message):
    row = fault if "index" in fault else dict(GOLDEN_ROW, **fault)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"rows": [GOLDEN_ROW, row]}))
    code, out = run(capsys, *command, "--golden", str(golden))
    assert code == 2
    assert out["error"].startswith(message.format(path=str(golden)))


@pytest.mark.parametrize("command", [["catalog"], ["verify", "catalog"]], ids=["catalog", "verify-catalog"])
def test_golden_rows_are_built_once(capsys, monkeypatch, tmp_path, command):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"rows": _load_catalog_rows()[:5]}))
    built = []

    def counted(rs, gamma0):
        built.append((rs.name, gamma0))
        return parabolic_stratum(rs, gamma0)

    # catalog_stratum builds each row's stratum through parabolic_stratum
    monkeypatch.setattr(restriction, "parabolic_stratum", counted)
    code = main([*command, "--golden", str(golden)])
    capsys.readouterr()
    assert code == 0
    assert len(built) == 5


def test_shipped_catalog_fault_stays_internal(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_catalog_rows", lambda: [dict(GOLDEN_ROW, family="Q8")])
    code, out = run(capsys, "catalog")
    assert code == 4
    assert out["internal"] is True


def test_shipped_row_that_pins_no_weight_stays_internal(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_catalog_rows", lambda: [dict(GOLDEN_ROW, gamma0=[], type="")])
    code, out = run(capsys, "catalog")
    assert code == 4
    assert out["internal"] is True
    assert "does not pin the multiplicity" in out["error"]


@pytest.mark.parametrize("argv,code", [
    (["catalog"], 0),
    (["check", "--family", "F4", "--subgraph", "A1A1", "--c1", "1/2", "--c2", "1/3"], 1),
], ids=["catalog", "check-not-invariant"])
def test_closed_stdout_is_not_a_failure(argv, code):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: the first write breaks the pipe
    try:
        done = subprocess.run(
            [sys.executable, "-m", "dunklcm.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, b"")


@pytest.mark.parametrize("subgraph,token", [
    ("A1:x=2", "'x=2'"),
    ("A1:2,3", "'3'"),
    ("A1:0", "'0'"),
    ("A1:-1", "'-1'"),
    ("A1:k=two", "'k=two'"),
    ("A1^2:k=2,k=3", "'k=3'"),
    ("A1^2:2,k=2", "'k=2'"),
    ("A1^2:k=2,m=2,2", "'2'"),
])
def test_bad_subgraph_option_is_a_usage_error(capsys, subgraph, token):
    code, out = run(capsys, "solve", "--family", "A", "--rank", "5", "--subgraph", subgraph)
    assert code == 2
    assert token in out["error"]


@pytest.mark.parametrize("family,rank_,subgraph,error", [
    ("A", "5", "foo:k=3,m=2", "cannot parse subgraph type 'foo'"),
    ("B", "4", ":l=2", "empty subgraph type"),
])
def test_bad_block_head_is_a_usage_error(capsys, family, rank_, subgraph, error):
    # a block spec's head is Bl, Dp or a type expression, checked for syntax only
    code, out = run(capsys, "solve", "--family", family, "--rank", rank_, "--subgraph", subgraph)
    assert code == 2
    assert error in out["error"]


@pytest.mark.parametrize("family,rank_,subgraph,gamma0", [
    ("A", "5", "A2:k=3,m=2", [1, 2, 4, 5]),
    ("B", "4", "Bl:l=2", [3, 4]),
    ("D", "4", "D2^2:k=2,m=2,eps=-1", [1, 4]),
])
def test_block_stratum_is_a_standard_parabolic_flat(capsys, family, rank_, subgraph, gamma0):
    # the simple roots inside each block, then the last l; eps=-1 swaps alpha_(n-1) for alpha_n
    code, out = run(capsys, "solve", "--family", family, "--rank", rank_, "--subgraph", subgraph)
    assert (code, out["stratum"]["gamma0"]) == (0, gamma0)


def test_block_stratum_puts_its_zeros_last(capsys):
    code, out = run(capsys, "restrict", "--family", "B", "--rank", "4", "--subgraph", "Bl:l=2")
    assert (code, out["stratum"]["gamma0"]) == (0, [3, 4])
    vectors = out["configuration"]["vectors"]
    assert vectors and all(v[2:] == ["0", "0"] for v in vectors)


@pytest.mark.parametrize("family,rank_", [
    ("A", 3), ("B", 3), ("B", 4), ("D", 4), ("D", 5), ("F4", None), ("H3", None),
])
def test_resolve_subgraph_names_every_enumerated_class(family, rank_):
    rs = root_system(family, rank_)
    for st in enumerate_parabolic_strata(rs):
        got = cli.resolve_subgraph(rs, st.label)
        assert (got.gamma0, subspace(got)) == (st.gamma0, subspace(st)), st.label
        assert got.label == st.label.removesuffix(":1")  # the first class keeps its bare type


@pytest.mark.parametrize("argv,flags", [
    (["verify", "gauge", "--family", "A", "--rank", "3", "--degree", "-5"], "--degree"),
    (["verify", "gauge", "--family", "A", "--rank", "3", "--c", "1/2", "--samples", "2"], "--c, --samples"),
    (["verify", "commutativity", "--family", "A", "--rank", "3", "--c", "1/2", "--samples", "5"], "--samples"),
    (["verify", "commutativity", "--group", "G(3,3,3)", "--family", "A", "--rank", "2"], "--family, --rank"),
    (["verify", "commutativity", "--family", "A", "--rank", "3", "--subgraph", "A1", "--k", "2"], "--subgraph, --k"),
    (["verify", "restriction", "--family", "A", "--rank", "3", "--subgraph", "A1", "--l", "3"], "--l"),
    (["verify", "deformed", "--family", "A", "--rank", "3", "--zeros", "1", "--eps", "0"], "--zeros, --eps"),
    (["verify", "catalog", "--family", "E6", "--golden", "x.json"], "--family"),
    (["verify", "gauge", "--family", "A", "--rank", "3", "--seed", "9"], "--seed"),
    (["verify", "restriction", "--family", "A", "--rank", "3", "--subgraph", "A1", "--seed", "0"], "--seed"),
    (["verify", "catalog", "--seed", "9"], "--seed"),
    (["verify", "commutativity", "--family", "A", "--rank", "3", "--c", "1/2", "--seed", "2"], "--seed"),
    (["verify", "deformed", "--family", "A", "--rank", "3", "--c", "1/2", "--seed", "2"], "--seed"),
], ids=["gauge-degree", "gauge-weights", "samples-beside-weights", "family-beside-group",
        "commutativity-subgraph", "restriction-l", "deformed-group-shape", "catalog-family",
        "gauge-seed", "restriction-seed", "catalog-seed", "seed-beside-commutativity-weights",
        "seed-beside-deformed-weights"])
def test_verify_rejects_options_its_suite_ignores(capsys, argv, flags):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out["error"] == f"verify {argv[1]} does not use {flags}"


@pytest.mark.parametrize("argv,error", [
    (["check", "--group", "G(3,3,3)", "--blocks", "1,2", "--c0", "1/2", "--family", "A", "--rank", "3",
      "--subgraph", "A1"], "check --group does not use --family, --rank, --subgraph"),
    (["check", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2", "--blocks", "1,2", "--zeros", "1"],
     "check --family does not use --blocks, --zeros"),
    (["solve", "--family", "A", "--rank", "3", "--subgraph", "A1", "--eps", "1"], "solve --family does not use --eps"),
    (["solve", "--group", "G(3,3,3)", "--blocks", "2", "--c0", "1/2"], "solve --group does not use --c0"),
    (["check", "--group", "G(3,3,3)", "--blocks", "1,1", "--eps", "1", "--c0", "1/2"],
     "a twist needs blocks of at least two coordinates"),
], ids=["check-group-beside-family", "check-family-beside-shape", "solve-family-beside-twist", "solve-weight",
        "twist-of-one-coordinate"])
def test_check_and_solve_reject_options_they_ignore(capsys, argv, error):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out["error"] == error


@pytest.mark.parametrize("argv,strata", [
    (["verify", "gauge", "--family", "F4"], 11),
    (["restrict", "--family", "H3", "--subgraph", "A1"], 1),
    (["solve", "--group", "G(4,2,3)", "--blocks", "2", "--zeros", "1"], 1),
    (["check", "--group", "G(4,2,2)", "--zeros", "2", "--symbolic"], 1),
], ids=["gauge", "restrict", "solve-group", "check-group-symbolic"])
def test_each_stratum_is_solved_once(capsys, monkeypatch, argv, strata):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_affine(*args)

    monkeypatch.setattr(rootsystems, "solve_affine", counted)
    monkeypatch.setattr(complexgroups, "solve_affine", counted)
    code = main(argv)
    capsys.readouterr()
    assert code == 0
    assert len(calls) == strata


def test_verify_defaults_are_unchanged(capsys):
    code, out = run(capsys, "verify", "commutativity", "--family", "A", "--rank", "2", "--seed", "1")
    assert code == 0 and len(out["samples"]) == 3
    code, out = run(capsys, "verify", "deformed", "--family", "A", "--rank", "2", "--c", "1/3")
    assert code == 0 and out["degree"] == 4 and out["powers"] == [1, 2]
    # the sample seed defaults to 0
    for suite in ("commutativity", "deformed"):
        argv = ["verify", suite, "--family", "A", "--rank", "2", "--degree", "1"]
        assert run(capsys, *argv) == run(capsys, *argv, "--seed", "0") != run(capsys, *argv, "--seed", "1")


@pytest.mark.parametrize("degree,checked", [("0", [2]), ("1", [2]), ("2", [2]), ("5", [2, 4])])
def test_verify_deformed_reports_restriction_degrees(capsys, degree, checked):
    code, out = run(capsys, "verify", "deformed", "--family", "A", "--rank", "3", "--subgraph", "A1",
                    "--degree", degree, "--c", "1/2")
    assert code == 0
    assert out["degree"] == int(degree)
    assert out["restriction_degrees"] == checked
    assert out["restriction_failing_degrees"] == []


# every command that reads a stratum or a flat: the gauge residues, the
# restricted configuration, the restriction identity on and off its locus
# (A3's whole-I stratum meets span(Phi) in 0 only), the deformed suite, the
# catalog, and the complex direct check and solve
NO_SUBSPACE_ARGVS = [
    ["verify", "gauge", "--family", "H3"],
    ["verify", "gauge", "--family", "F4"],
    ["verify", "gauge", "--family", "B", "--rank", "3"],
    ["verify", "gauge", "--family", "E6"],
    ["restrict", "--family", "E8", "--subgraph", "D4"],
    ["restrict", "--family", "H4", "--subgraph", "I2(5)"],
    ["restrict", "--family", "B", "--rank", "4", "--subgraph", "Bl:l=2"],
    ["verify", "restriction", "--family", "A", "--rank", "5", "--subgraph", "A2:k=3,m=2"],
    ["verify", "restriction", "--family", "E8", "--subgraph", "D4"],
    ["verify", "restriction", "--family", "E8", "--subgraph", "D4", "--c", "1/3"],
    ["verify", "restriction", "--family", "A", "--rank", "3", "--subgraph", "A3"],
    ["verify", "restriction", "--family", "A", "--rank", "3", "--subgraph", "A3", "--c", "1/3"],
    ["verify", "deformed", "--family", "A", "--rank", "3", "--subgraph", "A1", "--c", "1/2"],
    ["catalog"],
    ["verify", "catalog"],
    ["check", "--group", "G(4,2,3)", "--blocks", "1,2", "--zeros", "1", "--direct", "--c0=1/2", "--c1=1/2"],
    ["check", "--group", "G(4,2,3)", "--blocks", "1,2", "--zeros", "1", "--direct", "--c0=1/2", "--c1=1/3"],
    ["solve", "--group", "G(4,2,3)", "--blocks", "2"],
]


def test_no_command_builds_a_subspace(capsys, monkeypatch):
    """Commands read a flat through its normals and its lines, and the
    restricted configuration through its line keys: none reduces a Subspace."""

    def outcome(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    want = [outcome(argv) for argv in NO_SUBSPACE_ARGVS]
    assert {code for code, _ in want} == {0, 1}

    def refuse(*args, **kwargs):
        raise AssertionError("a command built a Subspace")

    monkeypatch.setattr(rootsystems.Subspace, "__init__", refuse)
    for argv, expect in zip(NO_SUBSPACE_ARGVS, want):
        assert outcome(argv) == expect, argv
