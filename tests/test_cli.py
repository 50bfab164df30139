import json

import pytest

from sympdeg import cli, core, oracle
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
    m, n = _ex1_files(tmp_path)
    code, out, _ = _run(capsys, "sym-moves", "--m", m, "--n", n,
                        "--type", "odd-neg", "--budget", "0")
    assert json.loads(out)["status"] == "inconclusive"


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


def _malformed(tmp_path, capsys, verb, obj):
    """Exit code and the one stderr line of a verb fed malformed JSON."""
    code, out, err = _run(capsys, verb, "--rep", _write(tmp_path, "in.json", obj))
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
