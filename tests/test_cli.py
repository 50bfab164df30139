import itertools
import json
import os
import subprocess
import sys

import pytest

import sympdeg
from sympdeg import cli, core, oracle, pbw, symdegen
from sympdeg.symdegen import EpsilonRep, SymmetricType

EXAMPLE = core.Representation(5, {(1, 4): 1, (2, 5): 1, (3, 3): 2})


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _ex1_files(tmp_path):
    m = core.Representation(5, {(1, 5): 6})
    n = core.rep_of(core.RankSequence(
        5, [[6, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [6]]))
    return (_write(tmp_path, "m.json", core.rep_to_json(m)),
            _write(tmp_path, "n.json", core.rep_to_json(n)))


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ranks_example(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", core.rep_to_json(EXAMPLE))
    code, out, _ = _run(capsys, "ranks", "--rep", rep)
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == [[1, 1, 1, 1, 0], [2, 2, 2, 1], [4, 2, 1],
                            [2, 1], [1]]
    # emitted JSON re-parses to an equal value
    assert core.ranks_from_json(data) == core.ranks_of(EXAMPLE)


def test_rep_of_ranks_roundtrip(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", core.rep_to_json(EXAMPLE))
    code, out, _ = _run(capsys, "ranks", "--rep", rep)
    ranks = _write(tmp_path, "ranks.json", json.loads(out))
    code, out, _ = _run(capsys, "rep-of-ranks", "--rep", ranks)
    assert code == 0
    assert core.rep_from_json(json.loads(out)) == EXAMPLE


def test_dual_and_hom(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", core.rep_to_json(EXAMPLE))
    code, out, _ = _run(capsys, "dual", "--rep", rep)
    assert core.rep_from_json(json.loads(out)) == EXAMPLE
    other = _write(tmp_path, "u.json",
                   core.rep_to_json(core.Representation(5, {(2, 3): 1})))
    code, out, _ = _run(capsys, "hom", "--m", rep, "--n", other)
    assert json.loads(out) == {"hom": 3}
    code, out, _ = _run(capsys, "ext", "--m", other, "--n", rep)
    assert code == 0 and "ext" in json.loads(out)


def test_check_eps(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", core.rep_to_json(EXAMPLE))
    code, out, _ = _run(capsys, "check-eps", "--rep", rep, "--type", "odd-neg")
    assert json.loads(out)["valid"] is True
    code, out, err = _run(capsys, "check-eps", "--rep", rep,
                          "--type", "even-pos")
    assert code == 1
    assert "MismatchedType" in err


def test_degen_path(tmp_path, capsys):
    m = _write(tmp_path, "m.json", core.rep_to_json(
        core.Representation(3, {(1, 3): 1})))
    n = _write(tmp_path, "n.json", core.rep_to_json(
        core.Representation(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1})))
    code, out, _ = _run(capsys, "degen-check", "--m", m, "--n", n)
    assert json.loads(out) == {"degenerates": True}
    code, out, _ = _run(capsys, "degen-path", "--m", m, "--n", n)
    data = json.loads(out)
    assert len(data["path"]) == 2
    assert all(step["move"]["kind"] in ("cut", "shift")
               for step in data["path"])


def test_sym_path_json(tmp_path, capsys):
    m, n = _ex1_files(tmp_path)
    code, out, _ = _run(capsys, "sym-path", "--m", m, "--n", n,
                        "--type", "odd-neg")
    data = json.loads(out)
    labels = [s["peel"]["label"] if s["peel"] else None
              for s in data["steps"]]
    assert labels == ["P_5", "P_4", "P_3", None]
    last = data["steps"][-1]
    assert last["z_ranks"]["rows"] == [[6, 5, 4, 3, 2], [6, 5, 4, 3],
                                       [6, 5, 4], [6, 5], [6]]


def test_sym_path_table_stable(tmp_path, capsys):
    m, n = _ex1_files(tmp_path)
    code, first, _ = _run(capsys, "sym-path", "--m", m, "--n", n,
                          "--type", "odd-neg", "--table")
    assert code == 0
    code, second, _ = _run(capsys, "sym-path", "--m", m, "--n", n,
                           "--type", "odd-neg", "--table")
    assert first == second
    assert "peel P_5" in first and "terminal" in first
    assert first.count("==") == 8


def test_sym_moves(tmp_path, capsys):
    """sym-moves has no search budget: --budget is a bad argument, and
    the pair is answered with a chain that replays to the target."""
    m, n = _ex1_files(tmp_path)
    code, out, err = _run(capsys, "sym-moves", "--m", m, "--n", n,
                          "--type", "odd-neg", "--budget", "0")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --budget 0" in err
    code, out, _ = _run(capsys, "sym-moves", "--m", m, "--n", n,
                        "--type", "odd-neg")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "found"
    sym = SymmetricType(5, -1)
    cur = EpsilonRep(core.rep_from_json(cli._load(m)), sym)
    for move in data["moves"]:
        cur = symdegen.apply_sym_move(cur, symdegen.symmove_from_json(move))
    assert cur.rep == core.rep_from_json(cli._load(n))


def test_sym_moves_found(tmp_path, capsys):
    m = _write(tmp_path, "m.json", core.rep_to_json(
        core.Representation(5, {(1, 5): 2, (2, 4): 2})))
    n = _write(tmp_path, "n.json", core.rep_to_json(core.Representation(
        5, {(1, 2): 1, (1, 4): 1, (2, 3): 1, (2, 5): 1, (3, 4): 1, (4, 5): 1})))
    code, out, _ = _run(capsys, "sym-moves", "--m", m, "--n", n,
                        "--type", "odd-neg")
    assert code == 0
    assert json.loads(out) == {"status": "found", "moves": [
        {"kind": "symcut", "t": 2, "s": 4, "q": 2},
        {"kind": "symshift", "t": 1, "s": 5, "q": 2, "r": 2}]}


def test_pbw_verbs(capsys, tmp_path):
    code, out, _ = _run(capsys, "pbw-build", "3", "1")
    data = json.loads(out)
    assert data["dims"] == [6] * 5
    assert core.rep_from_json(data["module"]).n == 5

    code, out, _ = _run(capsys, "pbw-weyl", "3", "1")
    data = json.loads(out)
    assert data["w"]["word"] == "s4 s3 s4 s2 s3 s4 s1"
    assert data["w"]["reduced"] and data["u"]["reduced"]

    code, out, _ = _run(capsys, "pbw-interior", "2", "1")
    dvec = json.loads(out)
    path = _write(tmp_path, "d.json", dvec)
    code, out, _ = _run(capsys, "pbw-face", "2", "1", "--rep", path)
    data = json.loads(out)
    assert data["contains"] and data["contains_strict"]
    assert data["violations"] == []

    code, out, _ = _run(capsys, "pbw-fixed-points", "2", "")
    assert json.loads(out)["count"] == 8

    code, out, _ = _run(capsys, "pbw-lemma-ui", "3", "1")
    data = json.loads(out)
    assert data["summary"]["rows"] == 6


def test_poset_matches_closure(capsys):
    code, out, _ = _run(capsys, "poset", "--type", "odd-neg",
                        "--dims", "1,2,1")
    data = json.loads(out)
    nodes = [core.rep_from_json(node) for node in data["nodes"]]
    # the unique source of the diagram reaches everything by moves
    targets = {a for a, _ in data["edges"]}
    sinks = {b for _, b in data["edges"]}
    sources = [i for i in range(len(nodes)) if i not in sinks]
    assert len(sources) == 1
    top = EpsilonRep(nodes[sources[0]], SymmetricType(3, -1))
    closure = oracle.closure_enumerate(top, "SYMMETRIC")
    assert len(closure) == len(nodes)

    code, out, _ = _run(capsys, "poset", "--type", "odd-neg",
                        "--dims", "1,2,1", "--dot")
    assert out.startswith("digraph")
    assert out.count("->") == len(data["edges"])


def test_oracle_verify(capsys):
    code, out, _ = _run(capsys, "oracle-verify", "--seed", "3",
                        "--budget", "10")
    assert code == 0
    assert json.loads(out)["mismatches"] == 0


def test_render_coeff(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", core.rep_to_json(EXAMPLE))
    code, out, _ = _run(capsys, "render-coeff", "--rep", rep)
    assert code == 0
    assert out == (
        "1  2  3  4  5\n"
        "o--o--o--o\n"
        "   o--o--o--o\n"
        "      o\n"
        "      o\n")


def test_exit_codes(tmp_path, capsys):
    assert _run(capsys, "no-such-verb")[0] == 2
    assert _run(capsys, "hom", "--m", "x.json")[0] == 2
    code, _, err = _run(capsys, "ranks", "--rep", str(tmp_path / "nope.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(capsys, "ranks", "--rep", str(bad))[0] == 1
    assert _run(capsys, "--help")[0] == 0


def _malformed(tmp_path, capsys, verb, obj, *args):
    """Exit code and the one stderr line of a verb fed malformed JSON."""
    code, out, err = _run(capsys, verb, *args, "--rep", _write(tmp_path, "in.json", obj))
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("MalformedInput: "), err
    return code, err


def test_malformed_top_level_list(tmp_path, capsys):
    for verb in ("ranks", "rep-of-ranks"):
        code, err = _malformed(tmp_path, capsys, verb, [5, []])
        assert code == 2
        assert "top level: expected object, got array" in err


def test_malformed_missing_field(tmp_path, capsys):
    for verb, obj, field in (("ranks", {"n": 3}, "'mult'"),
                             ("ranks", {"mult": []}, "'n'"),
                             ("ranks", {"n": 3, "mult": [{"i": 1, "j": 2}]}, "'mult[0].m'"),
                             ("rep-of-ranks", {"n": 1}, "'rows'"),
                             ("rep-of-ranks", {"rows": [[1]]}, "'n'")):
        code, err = _malformed(tmp_path, capsys, verb, obj)
        assert code == 2
        assert "missing field %s" % field in err


def test_malformed_boolean_multiplicity(tmp_path, capsys):
    obj = {"n": 3, "mult": [{"i": 1, "j": 2, "m": True}]}
    code, err = _malformed(tmp_path, capsys, "ranks", obj)
    assert code == 2
    assert "field 'mult[0].m': expected integer, got boolean" in err
    # repeated entries still add up, but a negative one is refused
    obj["mult"] = [{"i": 1, "j": 2, "m": 2}, {"i": 1, "j": 2, "m": 1}]
    assert core.rep_from_json(obj) == core.Representation(3, {(1, 2): 3})
    obj["mult"][1]["m"] = -1
    code, err = _malformed(tmp_path, capsys, "ranks", obj)
    assert code == 2 and "field 'mult[1].m'" in err


def test_malformed_root_vector(tmp_path, capsys):
    code, err = _malformed(tmp_path, capsys, "pbw-face", {"n": 3}, "3", "1")
    assert code == 2 and "missing field 'entries'" in err
    entries = [{"kind": kind, "i": i, "j": j, "d": 0}
               for kind, i, j in pbw.canonical_root_keys(3)]
    entries[0]["d"] = True
    code, err = _malformed(tmp_path, capsys, "pbw-face", {"n": 3, "entries": entries},
                           "3", "1")
    assert code == 2
    assert "field 'entries[0].d': expected integer, got boolean" in err


def _all_subsets(n):
    return [",".join(map(str, i)) or "-"
            for r in range(n) for i in itertools.combinations(range(1, n), r)]


def test_pbw_fixed_points_counts_by_default(capsys):
    for n in (2, 7):
        for i in _all_subsets(n):
            code, out, err = _run(capsys, "pbw-fixed-points", str(n), i)
            subset = pbw.PbwSubset.make(n, cli._subset_list(i))
            assert code == 0 and err == ""
            assert json.loads(out) == {"n": n, "i": list(subset.i),
                                       "count": pbw.count_lagrangian_fixed_points(subset)}


def test_pbw_fixed_points_list(capsys):
    """--list prints the count and every point, as the verb did before it
    printed the count alone."""
    for n in (2, 3, 4):
        for i in _all_subsets(n):
            subset = pbw.PbwSubset.make(n, cli._subset_list(i))
            points = pbw.lagrangian_fixed_points(subset)
            want = json.dumps({"n": n, "i": list(subset.i), "count": len(points),
                               "points": [[list(s) for s in fp.subsets] for fp in points]},
                              indent=2, sort_keys=True) + "\n"
            assert _run(capsys, "pbw-fixed-points", str(n), i, "--list") == (0, want, "")


def test_pbw_fixed_points_list_guard(capsys):
    # 1,323,658 points
    code, out, err = _run(capsys, "pbw-fixed-points", "6", "1,2,3,4,5", "--list")
    assert (code, out) == (1, "")
    assert err.startswith("InstanceTooLarge: 1323658 fixed points") and err.count("\n") == 1


def test_poset_guard(capsys):
    # 108 epsilon modules, found in well under a second
    code, out, err = _run(capsys, "poset", "--type", "even-neg", "--dims", "1,2,5,5,2,1")
    assert (code, out) == (1, "")
    assert err.startswith("InstanceTooLarge: 108 epsilon modules") and err.count("\n") == 1


def test_non_integer_list_arguments(capsys):
    """A subset or --dims entry that is not an integer is a bad argument:
    exit 2 with argparse's usage and one error line, no ValueError."""
    for argv, prog, name, text in (
            (("pbw-weyl", "3", "a"), "pbw-weyl", "i", "a"),
            (("poset", "--type", "odd-neg", "--dims", "1,x,1"), "poset", "--dims", "1,x,1")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: sympdeg %s " % prog), err
        assert err.splitlines()[-1] == (
            "sympdeg %s: error: argument %s: expected comma separated integers, "
            "got %r" % (prog, name, text)), err


def test_import_loads_no_oracle():
    """Only oracle-verify uses the brute-force oracle, so importing the CLI
    leaves the oracle's body unexecuted (its fractions import unloaded)
    until the first attribute access."""
    src = os.path.dirname(os.path.dirname(sympdeg.__file__))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import sympdeg.cli\n"
            "lazy = sys.modules['sympdeg.oracle']\n"
            "# read without triggering the load\n"
            "ran = 'realize_matrices' in object.__getattribute__(lazy, '__dict__')\n"
            "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - before)), ran)\n"
            "print(sympdeg.oracle.realize_matrices.__module__, 'fractions' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[] False", "sympdeg.oracle True"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["no-such-verb"], ["hom", "--m", "x.json"],
    ["ranks", "--rep", "x.json", "extra"], ["ranks", "--help"],
    ["pbw-fixed-points", "4", "1", "--lis", "x"], ["poset", "--type", "odd"],
])
def test_parser_messages_match_the_full_parser(argv, capsys):
    """run() builds the chosen verb's subparser alone; whatever the parser
    prints and exits with is what the parser of every verb gives."""
    try:
        cli._build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = int(exc.code or 0)
    full = capsys.readouterr()
    assert code is not None
    assert _run(capsys, *argv) == (code, full.out, full.err)
