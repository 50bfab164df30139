import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest

import sympdeg
from sympdeg import cli, core, degen, oracle, pbw, symdegen
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


def _parsed(argv):
    """vars() of the namespace argparse returns for argv, or None where it
    exits; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _checked(quick_args, argv):
    """quick_args(argv), failing unless it is None or the namespace
    argparse returns."""
    args = quick_args(argv)
    if args is not None:
        assert vars(args) == _parsed(argv), argv
    return args


@pytest.fixture(autouse=True)
def quick_args_checked(monkeypatch):
    """Every call cli.run gets in this file is a case of the parser
    equivalence: what _quick_args reads, argparse reads the same."""
    quick_args = cli._quick_args
    monkeypatch.setattr(cli, "_quick_args", lambda argv: _checked(quick_args, argv))


def _read_quickly(argv):
    """Whether cli._quick_args reads argv, checked against argparse by the
    quick_args_checked fixture."""
    return cli._quick_args(list(argv)) is not None


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


def test_sym_check(tmp_path, capsys):
    """sym-check answers true on the first worked pair, false on it
    reversed, and refuses a module that is not of the type with one
    NotEpsilon line and exit 1."""
    m, n = _ex1_files(tmp_path)
    code, out, _ = _run(capsys, "sym-check", "--m", m, "--n", n, "--type", "odd-neg")
    assert code == 0 and json.loads(out) == {"degenerates": True}
    code, out, _ = _run(capsys, "sym-check", "--m", n, "--n", m, "--type", "odd-neg")
    assert code == 0 and json.loads(out) == {"degenerates": False}
    odd = _write(tmp_path, "odd.json", core.rep_to_json(
        core.Representation(5, {(1, 2): 1})))
    code, out, err = _run(capsys, "sym-check", "--m", odd, "--n", n, "--type", "odd-neg")
    assert code == 1 and out == ""
    assert err.startswith("NotEpsilon: ") and err.count("\n") == 1


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
        cur = symdegen.apply_sym_move(cur, symdegen.SymMove(**move))
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


# sha256 of the pbw-face stdout below, as printed when each of contains,
# contains_strict, violations and violations_strict walked the face itself
FACE_STDOUT_DIGEST = "720a8965f920aa830505e50de5107c10fb9471d3953fabf191ae269c290700c5"


def _face_vectors(subset, rng):
    """The zero vector, the interior point, and a seeded +-1
    perturbation of each at one to three entries."""
    keys = pbw.canonical_root_keys(subset.n)
    for base in (pbw.zero_root_vector(subset.n), pbw.find_interior_point(subset)):
        yield base
        entries = dict(base.items())
        for key in rng.sample(keys, min(len(keys), rng.randint(1, 3))):
            entries[key] += rng.choice((-1, 1))
        yield pbw.CRootVector(subset.n, entries)


def test_pbw_face_stdout_pinned(tmp_path, capsys):
    """pbw-face reads contains off its violation lists; over every subset
    with n <= 6 and seeded vectors, zero and perturbed, its stdout is
    byte for byte the pinned output of the four separate face walks."""
    rng = random.Random(15)
    digest = hashlib.sha256()
    runs, seen = 0, set()
    for n in range(1, 7):
        for r in range(n):
            for combo in itertools.combinations(range(1, n), r):
                subset = pbw.PbwSubset.make(n, combo)
                for d in _face_vectors(subset, rng):
                    path = _write(tmp_path, "d.json", cli._dvec_to_json(d))
                    code, out, _ = _run(capsys, "pbw-face", str(n),
                                        ",".join(map(str, combo)), "--rep", path)
                    assert code == 0
                    data = json.loads(out)
                    assert data["contains"] == (not data["violations"])
                    seen.add((data["contains"], data["contains_strict"]))
                    digest.update(out.encode())
                    runs += 1
    assert runs == 4 * 63
    assert seen == {(True, True), (True, False), (False, False)}
    assert digest.hexdigest() == FACE_STDOUT_DIGEST


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


@pytest.mark.parametrize("dims, nodes, edges", [
    ("2,2,2", 3, 2), ("1,2,2,2,1", 7, 8), ("2,2,2,2,2", 10, 13)])
def test_poset_edges_are_the_covers(capsys, dims, nodes, edges):
    """poset's nodes are the epsilon modules of the dims, and its edges
    the Hasse diagram of sym_degenerates on them: every pair a > b with no
    node strictly between.  Each order here has pairs that are not
    covers, which poset must drop."""
    sym = SymmetricType(len(dims.split(",")), -1)
    code, out, err = _run(capsys, "poset", "--type", "odd-neg", "--dims", dims)
    assert (code, err) == (0, "")
    data = json.loads(out)
    reps = [EpsilonRep(core.rep_from_json(node), sym) for node in data["nodes"]]
    assert set(reps) == {EpsilonRep(rep, sym) for rep in
                         symdegen.epsilon_modules_with_dims(data["dims"], sym)}
    above = {(a, b) for (a, m), (b, t) in itertools.product(enumerate(reps), repeat=2)
             if a != b and symdegen.sym_degenerates(m, t)}
    covers = {(a, b) for a, b in above
              if not any((a, c) in above and (c, b) in above for c in range(len(reps)))}
    assert (len(reps), len(covers)) == (nodes, edges) and len(above) > edges
    assert sorted(map(tuple, data["edges"])) == sorted(covers)
    code, out, err = _run(capsys, "poset", "--type", "odd-neg", "--dims", dims, "--dot")
    assert (code, err) == (0, "")
    assert out.count("->") == edges


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


def test_error_line_per_exception_family(tmp_path, capsys):
    """A malformed input exits 2; a domain, value or OS error exits 1; each
    prints one 'Type: message' line and nothing on stdout."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1000 + "]" * 1000)
    missing = str(tmp_path / "nope.json")
    for obj_or_path, code, line in (
            ({"n": 3}, 2, "MalformedInput: missing field 'mult'"),
            ({"n": 3, "mult": [{"i": 3, "j": 1, "m": 1}]}, 1,
             "ValueError: segment (3, 1) out of range for n=3"),
            (str(bad), 1, "JSONDecodeError: Expecting property name enclosed in "
                          "double quotes: line 1 column 2 (char 1)"),
            (missing, 1, "FileNotFoundError: [Errno 2] No such file or directory: %r"
                         % missing),
            (str(deep), 1, "ValueError: JSON input nested too deeply")):
        path = obj_or_path if isinstance(obj_or_path, str) else \
            _write(tmp_path, "in.json", obj_or_path)
        assert _run(capsys, "ranks", "--rep", path) == (code, "", line + "\n")
    assert _run(capsys, "poset", "--type", "even-neg", "--dims", "1,2,5,5,2,1") == \
        (1, "", "InstanceTooLarge: more than 100 epsilon modules exceed the poset guard\n")


def _malformed(tmp_path, capsys, verb, obj, *args):
    """Exit code and the one stderr line of a verb fed malformed JSON."""
    code, out, err = _run(capsys, verb, *args, "--rep", _write(tmp_path, "in.json", obj))
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("MalformedInput: "), err
    return code, err


_FILE_FLAGS = ("--rep", "--m", "--n")
_FILE_VERBS = [verb for verb, (_, _, arguments) in cli.VERBS.items()
               if any(name in _FILE_FLAGS for name, _ in arguments)]


@pytest.mark.parametrize("verb", _FILE_VERBS)
def test_malformed_json_on_every_file_verb(tmp_path, capsys, verb):
    """Given as every file it reads, text that is not JSON, a top-level
    list, {}, JSON nested 1,000 deep and fields of the wrong JSON type
    make a verb exit 1 (a ValueError of the decoder) or 2 (MalformedInput)
    with one stderr line and no stdout, never a traceback."""
    assert len(_FILE_VERBS) == 13
    inputs = [("{not json", 1), ("[5, []]", 2), ("{}", 2),
              ("[" * 1000 + "]" * 1000, 1),
              (json.dumps({"n": "3", "mult": {}, "rows": 1, "entries": "x"}), 2)]
    for text, want in inputs:
        path = tmp_path / "in.json"
        path.write_text(text)
        argv = [verb]
        for name, options in cli.VERBS[verb][2]:
            if name in _FILE_FLAGS:
                argv += [name, str(path)]
            elif "choices" in options:
                argv += [name, options["choices"][0]]
            elif not name.startswith("-") and options.get("nargs") != "?":
                argv += ["3"]
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (want, ""), (argv, text[:20], err)
        assert err.count("\n") == 1 and err.endswith("\n"), err


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


def _levels_drawn(monkeypatch):
    """The number of levels each later call draws from pbw._chain_totals,
    the count's recurrence, one entry per call."""
    drawn, chain_totals = [], pbw._chain_totals

    def counted(subset):
        drawn.append(0)
        for total in chain_totals(subset):
            drawn[-1] += 1
            yield total

    monkeypatch.setattr(pbw, "_chain_totals", counted)
    return drawn


def test_pbw_fixed_points_digit_limit(capsys, monkeypatch):
    """A count past the interpreter's int-to-string limit (lowered here to
    its minimum, 640 digits) is one InstanceTooLarge line and exit 1, not
    a ValueError from printing it.  It is raised before the count's first
    step where 2^n n! already clears the limit, else at the first level of
    the count whose bound does, at the latest after counting."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # 2^276 276! has 639 digits, so it prints
        code, out, err = _run(capsys, "pbw-fixed-points", "276", "-")
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 2 ** 276 * math.factorial(276)
        # 645 digits, though 2^180 180! has only 384
        full = ",".join(map(str, range(1, 180)))
        code, out, err = _run(capsys, "pbw-fixed-points", "180", full)
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("InstanceTooLarge: the fixed-point count for n=180 "
                              "has more than 640 digits")

        # only the first level, the comb(n, c) middle members, is drawn
        drawn = _levels_drawn(monkeypatch)
        for argv in (("278", "-"), ("1600", "-"), ("1600", "-", "--list")):
            code, out, err = _run(capsys, "pbw-fixed-points", *argv)
            assert (code, out) == (1, "") and err.count("\n") == 1
            assert err.startswith("InstanceTooLarge: the fixed-point count for n=%s "
                                  % argv[0])
        assert drawn == [1, 1, 1]
    finally:
        sys.set_int_max_str_digits(limit)


def test_pbw_fixed_points_refused_inside_the_count(capsys, monkeypatch):
    """Each partial chain down to S_k extends to at least k! full chains,
    so a count past the limit is refused at the first level of its
    recurrence whose bound reaches the limit.  With all walls, n = 270 has
    a count of 1,060 digits but 2^n n! of 623, under the lowered limit of
    640: refused after 11 of its 271 levels.  n = 1300 with all walls (the
    default limit, 4,300 digits) took 12 s to count before its refusal."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        drawn = _levels_drawn(monkeypatch)
        walls = ",".join(map(str, range(1, 270)))
        code, out, err = _run(capsys, "pbw-fixed-points", "270", walls)
        assert (code, out) == (1, "")
        assert err == ("InstanceTooLarge: the fixed-point count for n=270 has more than "
                       "640 digits, the interpreter's limit for printing an integer\n")
        assert drawn == [11]
        # a count that prints draws every level
        code, out, err = _run(capsys, "pbw-fixed-points", "276", "-")
        assert (code, err) == (0, "") and drawn == [11, 277]
    finally:
        sys.set_int_max_str_digits(limit)


def _fresh_python(*args):
    """Run a fresh interpreter on this package, failing instead of hanging."""
    src = os.path.dirname(os.path.dirname(sympdeg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_pbw_fixed_points_count_large_n():
    """The count takes polynomial time, so n = 60 answers at once."""
    done = _fresh_python("-m", "sympdeg.cli", "pbw-fixed-points", "60", "-")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {"n": 60, "i": [],
                                       "count": 2 ** 60 * math.factorial(60)}


def test_pbw_fixed_points_list_guard_large_n():
    walls = ",".join(map(str, range(1, 30)))
    done = _fresh_python("-m", "sympdeg.cli", "pbw-fixed-points", "30", walls, "--list")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("InstanceTooLarge: ") and done.stderr.count("\n") == 1


def test_ranks_guard_before_the_table(tmp_path, capsys, monkeypatch):
    """The 27-byte {"n": 1000000, "mult": []} is one InstanceTooLarge line
    and exit 1 at once, refused before any rank table is built; the guard
    is n(n+1)/2 entries, so n = 1999 still reaches ranks_of."""
    built, one_vertex = [], core.ranks_of(core.Representation(1))

    def recording(rep):
        built.append(rep.n)
        return one_vertex

    monkeypatch.setattr(core, "ranks_of", recording)
    path = tmp_path / "big.json"
    path.write_text('{"n": 1000000, "mult": []}\n')
    assert path.stat().st_size == 27
    start = time.perf_counter()
    code, out, err = _run(capsys, "ranks", "--rep", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, built) == (1, "", [])
    assert err == ("InstanceTooLarge: a rank table on 1000000 vertices has "
                   "500000500000 entries, more than the ranks guard 2000000\n")
    for n, refused in ((2000, True), (1999, False)):
        rep = _write(tmp_path, "rep.json", {"n": n, "mult": []})
        code, out, err = _run(capsys, "ranks", "--rep", rep)
        assert (code, err.startswith("InstanceTooLarge: ")) == (int(refused), refused)
        assert built == ([] if refused else [1999])


_BIG_REP_VERBS = [
    ("ranks", ("--rep",), True),
    ("degen-check", ("--m", "--n"), True),
    ("degen-path", ("--m", "--n"), True),
    ("sym-check", ("--type", "even-neg", "--m", "--n"), True),
    ("sym-path", ("--type", "even-neg", "--m", "--n"), True),
    ("sym-moves", ("--type", "even-neg", "--m", "--n"), True),
    ("hom", ("--m", "--n"), False),
    ("ext", ("--m", "--n"), False),
    ("dual", ("--rep",), False),
    ("check-eps", ("--type", "even-neg", "--rep"), False),
]


@pytest.mark.parametrize("verb, flags, guarded", _BIG_REP_VERBS,
                         ids=[verb for verb, _, _ in _BIG_REP_VERBS])
def test_rank_table_guard_on_every_table_verb(tmp_path, capsys, verb, flags, guarded):
    """Every verb that builds a rank table refuses {"n": 1000000, "mult": []}
    at once with one InstanceTooLarge line (given as every module it
    reads); the verbs that build none still answer."""
    path = _write(tmp_path, "big.json", {"n": 1000000, "mult": []})
    argv = [verb]
    for word in flags:
        argv += [word, path] if word in ("--rep", "--m", "--n") else [word]
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1
    if guarded:
        assert (code, out) == (1, "")
        assert err == ("InstanceTooLarge: a rank table on 1000000 vertices has "
                       "500000500000 entries, more than the ranks guard 2000000\n")
    else:
        assert (code, err) == (0, "") and json.loads(out)


def test_sym_moves_guard_before_the_peel(tmp_path, capsys, monkeypatch):
    """sym-moves refuses a source of total dimension D on n vertices with
    D (n(n+1)/2 + 1000) above 50,000,000: one InstanceTooLarge line and
    exit 1 at once, before any peel step.  2c copies of [1, 2] down to
    2c copies of each simple have D = 4c, so c = 12,462 (49,997,544)
    still reaches the refinement, stood in for here, and c = 12,463 does
    not."""
    reached = []

    def stand_in(start, target):
        reached.append(start.rep.m(1, 2))
        return []

    monkeypatch.setattr(symdegen, "sym_move_refinement", stand_in)
    for c, refused in ((12463, True), (12462, False)):
        m = _write(tmp_path, "m.json", core.rep_to_json(core.Representation(
            2, {(1, 2): 2 * c})))
        n = _write(tmp_path, "n.json", core.rep_to_json(core.Representation(
            2, {(1, 1): 2 * c, (2, 2): 2 * c})))
        code, out, err = _run(capsys, "sym-moves", "--type", "even-pos", "--m", m, "--n", n)
        if refused:
            assert (code, out, reached) == (1, "", [])
            assert err == ("InstanceTooLarge: paired moves from total dimension 49852 on 2 "
                           "vertices have a work bound of 50001556, more than the sym-moves "
                           "guard 50000000\n")
        else:
            assert (code, err, reached) == (0, "", [2 * c])
            assert json.loads(out) == {"status": "found", "moves": []}


@pytest.mark.parametrize("verb, module, walk, c, copies, err", [
    ("degen-path", degen, "degeneration_path", 2492, 1,
     "InstanceTooLarge: degeneration moves from total dimension 4986 on 2 vertices have "
     "a work bound of 5000958, more than the degen-path guard 5000000\n"),
    ("sym-path", symdegen, "sym_degeneration_path", 997, 2,
     "InstanceTooLarge: peel steps from total dimension 3992 on 2 vertices have "
     "a work bound of 4003976, more than the sym-path guard 4000000\n"),
], ids=["degen-path", "sym-path"])
def test_path_guards_before_the_peel(tmp_path, capsys, monkeypatch, verb, module, walk,
                                     c, copies, err):
    """degen-path and sym-path refuse a source of total dimension D on n
    vertices with D (n(n+1)/2 + 1000) above their guards, 5,000,000 and
    4,000,000: one InstanceTooLarge line and exit 1 at once, before any
    peel step.  k copies of [1, 2] down to k copies of each simple have
    D = 2k; with k = copies * c the walk, stood in for here, is still
    reached, and with k = copies * (c + 1) it is not.  Before the guards, 80
    copies of [1, 60] down to simples took 1.9 s and printed 14 MB on
    degen-path, and 7 s and 212 MB on sym-path."""
    reached = []

    def stand_in(start, target):
        reached.append(target)
        return []

    monkeypatch.setattr(module, walk, stand_in)
    argv = [verb] + (["--type", "even-pos"] if verb == "sym-path" else [])
    for count, refused in ((c + 1, True), (c, False)):
        m = _write(tmp_path, "m.json", core.rep_to_json(core.Representation(
            2, {(1, 2): copies * count})))
        n = _write(tmp_path, "n.json", core.rep_to_json(core.Representation(
            2, {(1, 1): copies * count, (2, 2): copies * count})))
        code, out, got = _run(capsys, *argv, "--m", m, "--n", n)
        if refused:
            assert (code, out, got, reached) == (1, "", err, [])
        else:
            assert (code, got, len(reached)) == (0, "", 1)
            assert json.loads(out)[{"degen-path": "path", "sym-path": "steps"}[verb]] == []


def test_render_coeff_guard_before_drawing(tmp_path, capsys, monkeypatch):
    """render-coeff refuses a drawing of more than 12,000,000 characters,
    a header and a row per copy of a segment at len(str(n)) + 2 per
    vertex: one InstanceTooLarge line and exit 1 at once, before any line
    is drawn.  On 2 vertices a row has 6, so 1,999,999 copies of [1, 2]
    still reach the drawing, stood in for here, and 2,000,000 do not; a
    header alone on 1,333,333 vertices has 9 per vertex and passes.
    Before the guard, 3,000,000 copies of [1, 3] peaked at 266 MB."""
    drawn = []

    def stand_in(rep):
        drawn.append((rep.n, sum(rep.mult.values())))
        return ""

    monkeypatch.setattr(cli, "_render_coeff", stand_in)
    for n, mult, refused in (
            (2, {(1, 2): 2_000_000}, "a drawing of 2000001 rows on 2 vertices has 12000006"),
            (2, {(1, 2): 1_999_999}, None),
            (1_333_334, {}, "a drawing of 1 rows on 1333334 vertices has 12000006"),
            (1_333_333, {}, None)):
        rep = _write(tmp_path, "rep.json", core.rep_to_json(core.Representation(n, mult)))
        code, out, err = _run(capsys, "render-coeff", "--rep", rep)
        if refused:
            assert (code, out, drawn) == (1, "", [])
            assert err == ("InstanceTooLarge: %s characters, more than the render "
                           "guard 12000000\n" % refused)
        else:
            assert (code, out, err, drawn) == (0, "", "", [(n, sum(mult.values()))])
            drawn.clear()


@pytest.mark.parametrize("verb", ["hom", "ext"])
def test_hom_and_ext_guard_before_the_sum(tmp_path, capsys, monkeypatch, verb):
    """hom and ext refuse a pair of modules with more than 25,000,000 pairs
    of segments: one InstanceTooLarge line and exit 1 at once, before the
    sum over those pairs.  4,901 by 5,101 segments (25,000,001 pairs) are
    refused, and 5,000 by 5,000 still reach the sum, stood in for here.
    Before the guard, every segment of n = 200 as both modules (20,100
    segments, 581 KB) took 55 s on a 2-core x86-64 host."""
    summed = []

    def stand_in(m, n):
        summed.append((len(m.mult), len(n.mult)))
        return 0

    monkeypatch.setattr(core, verb + "_dim", stand_in)
    segments = [(i, j) for i in range(1, 102) for j in range(i, 102)]

    def module(name, count):
        return _write(tmp_path, name, core.rep_to_json(core.Representation(
            101, {seg: 1 for seg in segments[:count]})))

    for a, b, refused in ((4901, 5101, True), (5000, 5000, False)):
        code, out, err = _run(capsys, verb, "--m", module("m.json", a),
                              "--n", module("n.json", b))
        if refused:
            assert (code, out, summed) == (1, "", [])
            assert err == ("InstanceTooLarge: a sum over 4901 by 5101 segments has "
                           "25000001 pairs, more than the %s guard 25000000\n" % verb)
        else:
            assert (code, err, summed) == (0, "", [(a, b)])
            assert json.loads(out) == {verb: 0}


def test_pbw_build_guard_before_building(capsys, monkeypatch):
    """pbw-build refuses a locus whose JSON may print more than 2,000,000
    lines, 2(2n - 1) for dims and e and 21 per wall: one InstanceTooLarge
    line and exit 1 at once, before the module is built.  n = 500,000
    with no wall and n = 80,000 with every wall still reach the builder,
    stood in for here; n = 500,001 and n = 80,001 do not.  Before the
    guard, pbw-build 1000000 - peaked at 182 MB and printed 51 MB."""
    built, tiny = [], pbw.build_Mi(pbw.PbwSubset.make(1, ()))

    def stand_in(subset):
        built.append((subset.n, subset.t))
        return tiny

    monkeypatch.setattr(pbw, "build_Mi", stand_in)
    for n, walls, lines in ((500_001, "-", 2_000_002), (80_001, "all", 2_000_002),
                            (500_000, "-", None), (80_000, "all", None)):
        subset = walls if walls == "-" else ",".join(map(str, range(1, n)))
        code, out, err = _run(capsys, "pbw-build", str(n), subset)
        t = 0 if walls == "-" else n - 1
        if lines:
            assert (code, out, built) == (1, "", [])
            assert err == ("InstanceTooLarge: the module of a locus with n=%d and %d walls "
                           "may print %d lines, more than the build guard 2000000\n"
                           % (n, t, lines))
        else:
            assert (code, err, built) == (0, "", [(n, t)])
            assert json.loads(out)["quiver_n"] == 1
            built.clear()


def test_pbw_build_every_wall_in_linear_time(capsys):
    """The dims of pbw-build take one step per segment and vertex
    (core.dim_vector), not one per vertex of every segment: with every
    wall at n = 20,000 (4n - 3 segments, most of length about n) it
    answers at once, where summing segment by segment took minutes."""
    n = 20_000
    start = time.perf_counter()
    code, out, err = _run(capsys, "pbw-build", str(n), ",".join(map(str, range(1, n))))
    assert time.perf_counter() - start < 5
    data = json.loads(out)
    assert (code, err, len(data["module"]["mult"])) == (0, "", 4 * n - 3)
    assert data["dims"] == [2 * n] * (2 * n - 1)


def test_word_and_face_guards_before_building(tmp_path, capsys, monkeypatch):
    """pbw-weyl and pbw-lemma-ui refuse a locus whose type-A word has more
    than 1,000,000 letters, pbw-interior and pbw-face one whose face has
    more than 500,000 pair constraints: one InstanceTooLarge line and exit
    1 at once, before any word, face or root vector is built (the file of
    pbw-face is not even read).  pbw-weyl 3000 and pbw-interior 2000 ended
    in a MemoryError traceback under a 1 GB address-space cap.  n = 707
    and n = 91 still reach the builders, stood in for here."""
    built, tiny = [], pbw.PbwSubset.make(1, ())

    def stand_in(name, result):
        def build(*args, **kwargs):
            built.append(name)
            return result
        return build

    monkeypatch.setattr(pbw, "w_i_word", stand_in("w", pbw.w_i_word(tiny)))
    monkeypatch.setattr(pbw, "u_iprime_word", stand_in("u", pbw.u_iprime_word(tiny)))
    monkeypatch.setattr(pbw, "check_lemma_ui", stand_in("lemma", {}))
    monkeypatch.setattr(pbw, "find_interior_point", stand_in("interior", pbw.zero_root_vector(1)))
    monkeypatch.setattr(pbw, "_pair_violations", stand_in("pairs", iter(())))
    monkeypatch.setattr(pbw, "_exchange_violations", stand_in("exchange", iter(())))
    missing = str(tmp_path / "nope.json")
    word = ("InstanceTooLarge: the type-A word of a locus with n=%d has %d letters, "
            "more than the words guard 1000000\n")
    face = ("InstanceTooLarge: the face of a locus with n=%d has %d pair constraints, "
            "more than the face guard 500000\n")
    for argv, err in ((("pbw-weyl", "3000"), word % (3000, 17997000)),
                      (("pbw-weyl", "708", "1,707"), word % (708, 1001820)),
                      (("pbw-lemma-ui", "708"), word % (708, 1001820)),
                      (("pbw-interior", "2000"), face % (2000, 5329334000)),
                      (("pbw-interior", "92", "91"), face % (92, 510692)),
                      (("pbw-face", "92", "--rep", missing), face % (92, 510692))):
        start = time.perf_counter()
        assert _run(capsys, *argv) == (1, "", err), argv
        assert time.perf_counter() - start < 1
    assert built == []
    zero = _write(tmp_path, "d.json", cli._dvec_to_json(pbw.zero_root_vector(91)))
    for argv, names in ((("pbw-weyl", "707", "1,706"), ["w", "u"]),
                        (("pbw-lemma-ui", "707"), ["lemma"]),
                        (("pbw-interior", "91"), ["interior"]),
                        (("pbw-face", "91", "1", "--rep", zero),
                         ["pairs", "exchange", "pairs"])):
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, "") and json.loads(out) is not None, argv
        assert built == names, argv
        built.clear()


def test_guard_sizes_are_the_built_sizes():
    """The sizes the guards compute before building: the type-A word u has
    n(2n-1) letters and is the longer word (w has at most n^2), and the
    face has (2n-1)(n-1)n/3 pair constraints."""
    for n in range(1, 9):
        # beta1, beta2, total and bullet1: one entry per pair row
        for column in pbw._face_tables(n)[2:6]:
            assert len(column) == (2 * n - 1) * (n - 1) * n // 3
        for r in range(n):
            for combo in itertools.combinations(range(1, n), r):
                subset = pbw.PbwSubset.make(n, combo)
                assert len(pbw.u_iprime_word(subset).letters) == n * (2 * n - 1)
                assert len(pbw.w_i_word(subset).letters) <= n * n


def test_oversized_root_vector_file_refused_at_once(tmp_path, capsys):
    """A 70-byte vector file with n = 10**6 and one entry is refused before
    the n^2 root keys are built: exit 1 and one stderr line at once."""
    big = _write(tmp_path, "big.json",
                 {"n": 10 ** 6, "entries": [{"kind": "u", "i": 1, "j": 1, "d": 0}]})
    start = time.perf_counter()
    code, out, err = _run(capsys, "pbw-face", "3", "1", "--rep", big)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("ValueError: bad root keys: missing [('b', 1, 1), ")


def _walls(n):
    return ",".join(map(str, range(1, n)))


def test_face_report_guard(tmp_path, capsys, monkeypatch):
    """pbw-face refuses a weak or strict report of more than
    MAX_REPORTED_ROWS broken constraints before it prints anything: the
    zero vector with every wall chosen at n = 91 (496,860 strict rows) and
    a random vector at n = 40 (O(n^4) broken exchange rows).  The cap
    itself is accepted."""
    too_long = "InstanceTooLarge: the %s face report of this vector has more than " \
               "25000 rows, the report guard\n"
    assert cli.MAX_REPORTED_ROWS == 25000
    zero = _write(tmp_path, "zero.json", cli._dvec_to_json(pbw.zero_root_vector(91)))
    rng = random.Random(40)
    noisy = _write(tmp_path, "random.json", {"n": 40, "entries": [
        {"kind": kind, "i": i, "j": j, "d": rng.choice((-1, 0, 1))}
        for kind, i, j in pbw.canonical_root_keys(40)]})
    for argv, err in ((("pbw-face", "91", _walls(91), "--rep", zero), too_long % "strict"),
                      (("pbw-face", "40", "-", "--rep", noisy), too_long % "weak")):
        start = time.perf_counter()
        assert _run(capsys, *argv) == (1, "", err), argv
        assert time.perf_counter() - start < 10
    # at n = 4 with every wall chosen, zero breaks all 28 pair rows strictly
    zero4 = _write(tmp_path, "zero4.json", cli._dvec_to_json(pbw.zero_root_vector(4)))
    for cap, code in ((28, 0), (27, 1)):
        monkeypatch.setattr(cli, "MAX_REPORTED_ROWS", cap)
        got, out, err = _run(capsys, "pbw-face", "4", "1,2,3", "--rep", zero4)
        assert got == code
        if code:
            assert (out, err) == ("", "InstanceTooLarge: the strict face report of this "
                                      "vector has more than 27 rows, the report guard\n")
        else:
            assert len(json.loads(out)["violations_strict"]) == 28 and err == ""


def test_face_walks_the_exchange_rows_once(tmp_path, capsys, monkeypatch):
    """The weak and the strict report of pbw-face list the same exchange
    rows, so a vector that breaks a spanning row has the full exchange
    rows walked once, not once per report; the output is still the JSON
    of dynkin_face_violations in both modes."""
    subset = pbw.PbwSubset.make(6, (1, 3))
    rng = random.Random(6)
    d = pbw.CRootVector(6, {key: rng.choice((-1, 0, 1))
                            for key in pbw.canonical_root_keys(6)})
    weak = pbw.dynkin_face_violations(subset, d)
    strict = pbw.dynkin_face_violations(subset, d, strict=True)
    assert any(row["wall"] is None for row in weak)
    want = json.dumps({"n": 6, "i": [1, 3], "contains": not weak,
                       "contains_strict": not strict, "violations": weak,
                       "violations_strict": strict}, indent=2, sort_keys=True) + "\n"
    real, walks = pbw._exchange_rows, []

    def exchange_rows(n):
        walks.append(n)
        return real(n)

    monkeypatch.setattr(pbw, "_exchange_rows", exchange_rows)
    path = _write(tmp_path, "d.json", cli._dvec_to_json(d))
    assert _run(capsys, "pbw-face", "6", "1,3", "--rep", path) == (0, want, "")
    assert walks == [6]


def _stated_peak_mb():
    """The peak every guarded call stays below, as the guard comment in
    cli.py states it."""
    with open(cli.__file__) as handle:
        found = re.findall(r"peaks\s*(?:#\s*)?below (\d+) MB", handle.read())
    assert len(found) == 1
    return int(found[0])


def _child_peak_mb(*argv):
    """Exit code and peak RSS in MB of one CLI call, run as the only child
    of a fresh interpreter, so no earlier child of the test run counts."""
    code = ("import resource, subprocess, sys\n"
            "done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    done = _fresh_python("-c", code, sys.executable, "-m", "sympdeg.cli", *argv)
    assert done.returncode == 0, done.stderr
    exit_code, kilobytes = map(int, done.stdout.split())
    return exit_code, kilobytes / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux only")
def test_guarded_face_calls_stay_below_the_stated_peak(tmp_path):
    """The largest face calls the guards accept stay below the peak the
    guard comment states: pbw-interior at n = 91 with every wall, and
    pbw-face with both reports close to MAX_REPORTED_ROWS rows, once of
    pair rows at n = 91 (the largest face) and once of mostly exchange
    rows at n = 20 (the longer rows)."""
    limit = _stated_peak_mb()
    n = 91
    # the interior point of the walls picked here breaks exactly their
    # pair rows, (b-1)(2n-b) at wall b-1, for the subset "-"
    walls, rows = [], 0
    for wall in range(n - 1, 0, -1):
        b = wall + 1
        if rows + (b - 1) * (2 * n - b) <= cli.MAX_REPORTED_ROWS:
            walls.append(wall)
            rows += (b - 1) * (2 * n - b)
    assert rows > 0.99 * cli.MAX_REPORTED_ROWS
    pairs = _write(tmp_path, "pairs.json", cli._dvec_to_json(
        pbw.find_interior_point(pbw.PbwSubset.make(n, walls))))
    rng = random.Random(20)
    noisy = pbw.CRootVector(20, {key: rng.choice((-1, 0, 1))
                                 for key in pbw.canonical_root_keys(20)})
    report = pbw.dynkin_face_violations(pbw.PbwSubset.make(20, ()), noisy)
    assert 0.9 * cli.MAX_REPORTED_ROWS < len(report) <= cli.MAX_REPORTED_ROWS
    assert sum(row["wall"] is None for row in report) > 0.8 * len(report)
    exchange = _write(tmp_path, "exchange.json", cli._dvec_to_json(noisy))
    for argv in (("pbw-interior", str(n), _walls(n)),
                 ("pbw-face", str(n), "-", "--rep", pairs),
                 ("pbw-face", "20", "-", "--rep", exchange)):
        code, peak = _child_peak_mb(*argv)
        assert code == 0 and peak < limit, (argv, peak)


def _work(rep):
    """The work bound the path verbs' guards read off a source."""
    dim = sum(m * (j - i + 1) for (i, j), m in rep.mult.items())
    return dim * (rep.n * (rep.n + 1) // 2 + 1000)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux only")
def test_guarded_path_calls_stay_below_the_stated_peak(tmp_path):
    """The heaviest path calls found at the guards' edges stay below the
    peak the guard comment states: degen-path from every segment of
    n = 26 once (the modules it prints have the most segments),
    sym-path --table from [1, 2] + [1409, 1410] at n = 1410 (the largest
    tables), and sym-moves from 1,078 copies of [1, 31] (the longest
    chain found).  The same shapes at n = 27, n = 1420 and 1,080 copies
    are past the guards."""
    limit = _stated_peak_mb()
    calls = []
    for verb, rep, bigger, guard in (
            ("degen-path", core.Representation(26, {(i, j): 1 for i in range(1, 27)
                                                    for j in range(i, 27)}),
             core.Representation(27, {(i, j): 1 for i in range(1, 28)
                                      for j in range(i, 28)}),
             cli.MAX_DEGEN_PATH_WORK),
            ("sym-path", core.Representation(1410, {(1, 2): 1, (1409, 1410): 1}),
             core.Representation(1420, {(1, 2): 1, (1419, 1420): 1}),
             cli.MAX_SYM_PATH_WORK),
            ("sym-moves", core.Representation(31, {(1, 31): 2 * 539}),
             core.Representation(31, {(1, 31): 2 * 540}), cli.MAX_SYM_MOVES_WORK)):
        assert _work(rep) <= guard < _work(bigger)
        simples = {(v, v): m for v, m in enumerate(core.dim_vector(rep), 1) if m}
        m = _write(tmp_path, verb + "-m.json", core.rep_to_json(rep))
        n = _write(tmp_path, verb + "-n.json", core.rep_to_json(
            core.Representation(rep.n, simples)))
        calls.append([verb, "--m", m, "--n", n] + {
            "degen-path": [], "sym-path": ["--type", "even-pos", "--table"],
            "sym-moves": ["--type", "odd-neg"]}[verb])
    for argv in calls:
        code, peak = _child_peak_mb(*argv)
        assert code == 0 and peak < limit, (argv, peak)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux only")
def test_guarded_drawing_and_build_stay_below_the_stated_peak(tmp_path):
    """render-coeff and pbw-build at their guards' edges stay below the
    peak the guard comment states: 1,999,999 copies of [1, 2] (the most
    rows per character), and pbw-build 500000 - (the most vertices; every
    wall at n = 80,000 needs a subset longer than one argument may be)."""
    limit = _stated_peak_mb()
    rep = _write(tmp_path, "rep.json", core.rep_to_json(core.Representation(
        2, {(1, 2): 1_999_999})))
    for argv in (["render-coeff", "--rep", rep], ["pbw-build", "500000", "-"]):
        code, peak = _child_peak_mb(*argv)
        assert code == 0 and peak < limit, (argv, peak)


def test_poset_guard(capsys):
    # 108 epsilon modules, found in well under a second
    code, out, err = _run(capsys, "poset", "--type", "even-neg", "--dims", "1,2,5,5,2,1")
    assert (code, out) == (1, "")
    assert err.startswith("InstanceTooLarge: more than 100 epsilon modules") \
        and err.count("\n") == 1


def test_poset_guard_without_listing_every_module(capsys):
    # 292 epsilon modules among 106,887 modules of the first dims, and
    # 299,390 epsilon modules of the second; only the epsilon ones are
    # searched, and only up to one past the guard, so it fires at once
    for dims in ("2,4,4,4,4,4,2", "12,12,12,12,12,12,12"):
        start = time.perf_counter()
        code, out, err = _run(capsys, "poset", "--type", "odd-neg", "--dims", dims)
        assert time.perf_counter() - start < 2, dims
        assert (code, out) == (1, "")
        assert err.startswith("InstanceTooLarge: more than 100 epsilon modules") \
            and err.count("\n") == 1


def test_poset_negative_dims(capsys):
    """A negative --dims entry is a domain error, exit 1, not an empty
    poset."""
    assert _run(capsys, "poset", "--type", "odd-neg", "--dims", "1,-2,1") == \
        (1, "", "ValueError: dims must be one or more non-negative integers, "
                "got (1, -2, 1)\n")


def test_oracle_verify_budget_not_negative(capsys):
    """A negative budget checked nothing and reported no mismatch; it is
    now a bad argument: argparse's usage and one error line, exit 2.  Text
    that is no integer keeps its message, and a zero budget still runs."""
    for budget, message in (("-3", "expected a non-negative integer, got '-3'"),
                            ("x", "invalid int value: 'x'")):
        code, out, err = _run(capsys, "oracle-verify", "--budget", budget)
        assert (code, out) == (2, "")
        assert err.startswith("usage: sympdeg oracle-verify "), err
        assert err.splitlines()[-1] == \
            "sympdeg oracle-verify: error: argument --budget: " + message
    code, out, err = _run(capsys, "oracle-verify", "--budget", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"seed": 0, "budget": 0, "mismatches": 0}


def test_poset_zero_dims_past_recursion_limit(capsys):
    """62 zero dims used to end in a RecursionError traceback; the only
    epsilon module is the zero module."""
    code, out, err = _run(capsys, "poset", "--type", "even-pos", "--dims", ",".join("0" * 62))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["nodes"] == [{"n": 62, "mult": []}] and data["edges"] == []


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


def test_import_contract():
    """Importing the CLI imports every layer plainly: each is in
    sys.modules as an ordinary module.  It loads neither fractions nor
    decimal, which only the oracle's exact ranks need; the first call of
    oracle.exact_rank loads fractions."""
    code = ("import sys, types\n"
            "before = set(sys.modules)\n"
            "import sympdeg.cli\n"
            "names = ['sympdeg.' + m for m in ('core', 'degen', 'symdegen', "
            "'coxeter', 'pbw', 'oracle', 'cli')]\n"
            "print(all(type(sys.modules[m]) is types.ModuleType for m in names))\n"
            "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - before)))\n"
            "print(sympdeg.oracle.exact_rank([[1, 2], [2, 4]]), "
            "'fractions' in sys.modules)\n")
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["True", "[]", "1 True"]


def test_plain_calls_load_no_argparse():
    """Neither importing the CLI nor a plain call loads argparse, or the
    gettext and locale modules it brings; help still goes through
    argparse and prints its usage and verb list."""
    code = ("import contextlib, io, sys\n"
            "parser = {'argparse', 'gettext', 'locale'}\n"
            "import sympdeg.cli\n"
            "print(sorted(parser & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [sympdeg.cli.run(argv) for argv in (\n"
            "        ['pbw-weyl', '3', '1'], ['pbw-fixed-points', '3', '-', '--list'],\n"
            "        ['oracle-verify', '--budget', '1'])]\n"
            "print(codes, sorted(parser & set(sys.modules)))\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = sympdeg.cli.run(['--help'])\n"
            "text = out.getvalue()\n"
            "print(code, text.splitlines()[0], all(verb in text for verb in sympdeg.cli.VERBS),\n"
            "      'argparse' in sys.modules)\n")
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[0, 0, 0] []", "0 usage: sympdeg [-h] True True"]


def _cli_verbs_calls(seed, tmp_path):
    """Calls of the shapes the cli-verbs benchmark sends, one round of its
    eleven verbs per draw, drawn from seed here."""
    rng = random.Random(seed)

    def path():
        return str(tmp_path / ("in%04d.json" % rng.randrange(10 ** 4)))

    def subset(n):
        return ",".join(map(str, sorted(rng.sample(range(1, n), rng.randint(0, n - 1))))) or "-"

    calls = []
    for _ in range(12):
        n = rng.randint(3, 6)
        half = [str(rng.randint(1, 2)) for _ in range(rng.choice((1, 2)))]
        calls += [["ranks", "--rep", path()], ["rep-of-ranks", "--rep", path()],
                  ["hom", "--m", path(), "--n", path()],
                  ["degen-check", "--m", path(), "--n", path()],
                  ["degen-path", "--m", path(), "--n", path()],
                  ["sym-path", "--m", path(), "--n", path(), "--type", "odd-neg"],
                  ["pbw-weyl", str(n), subset(n)],
                  ["pbw-face", str(n), subset(n), "--rep", path()],
                  ["pbw-fixed-points", "4", subset(4)],
                  ["poset", "--type", "odd-neg", "--dims", ",".join(half + ["2"] + half[::-1])],
                  ["oracle-verify", "--seed", str(rng.randint(0, 10 ** 6)), "--budget", "10"]]
    return calls


# calls _quick_args reads, and calls it leaves to argparse: abbreviations,
# --flag=value, repeats, negative numbers, --, help, positionals after a
# flag, extra tokens, values its type rejects, missing required flags
_QUICK_EDGES = [
    ["pbw-weyl", "3", "-"], ["pbw-weyl", "3", ""], ["pbw-weyl", "3"],
    ["pbw-fixed-points", "4", "--list"], ["pbw-fixed-points", "4", "", "--list"],
    ["ranks", "--rep", "-"], ["ranks", "--rep", ""], ["ranks", "--rep", "a b"],
    ["oracle-verify"], ["oracle-verify", "--budget", " 7 "], ["pbw-weyl", "1_0", "1"],
    ["sym-path", "--table", "--type", "odd-neg", "--n", "b", "--m", "a"],
]
_ARGPARSE_EDGES = [
    ["pbw-face", "4", "--rep", "f", "1,3"], ["ranks", "--re", "f"], ["ranks", "--rep=f"],
    ["ranks", "--rep", "f", "--rep", "g"], ["oracle-verify", "--budget", "-3"],
    ["oracle-verify", "--seed", "-3"], ["ranks", "--", "--rep", "f"], ["ranks", "--rep", "f", "--"],
    ["pbw-weyl", "--", "3"], ["-h"], ["--help"], ["ranks", "-h"], ["ranks", "--rep", "f", "--help"],
    ["hom", "--m", "f"], ["poset", "--dims", "1,2,1"], ["poset", "--type", "odd", "--dims", "1"],
    ["poset", "--type", "odd-neg", "--dims", "1,x,1"], ["pbw-weyl", "3", "a"], ["pbw-weyl", "x"],
    ["pbw-weyl", "-3"], ["pbw-weyl", "3", "1", "2"], ["pbw-weyl", "3", "-1"], ["ranks", "--rep"],
    ["sym-path", "--m", "a", "--n", "b", "--type", "odd-neg", "--table", "x"],
    ["oracle-verify", "--budget", "x"], ["pbw-fixed-points", "4", "--list", "--list"],
    [], ["no-such-verb"], ["ranks", "extra", "--rep", "f"],
]


def test_quick_args_match_argparse(tmp_path):
    """For every call of the corpus, _quick_args returns None or the
    namespace argparse returns: the cli-verbs calls of three seeds (all
    plain, so all read without argparse) and the edge cases above (every
    call of this file is checked as well, by the quick_args_checked
    fixture)."""
    calls = [call for seed in (1, 2, 3) for call in _cli_verbs_calls(seed, tmp_path)]
    assert len(calls) == 396
    assert all(_read_quickly(call) for call in calls)
    assert [call for call in _QUICK_EDGES if not _read_quickly(call)] == []
    assert [call for call in _ARGPARSE_EDGES if _read_quickly(call)] == []


def _minimal_plain_call(verb):
    """The verb with its required positionals and flags, each given its
    first choice or else "1"."""
    argv, flags = [verb], []
    for name, options in cli.VERBS[verb][2]:
        value = options["choices"][0] if "choices" in options else "1"
        if not name.startswith("-"):
            if options.get("nargs") != "?":
                argv.append(value)
        elif options.get("required"):
            flags += [name, value]
    return argv + flags


def _full_plain_call(verb):
    """The verb with every positional and every flag, once each: a switch
    bare, any other argument its first choice or else "1"."""
    argv, flags = [verb], []
    for name, options in cli.VERBS[verb][2]:
        if "action" in options:
            flags.append(name)
            continue
        value = options["choices"][0] if "choices" in options else "1"
        if name.startswith("-"):
            flags += [name, value]
        else:
            argv.append(value)
    return argv + flags


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_every_verb_takes_the_quick_path(verb):
    """Each verb's minimal plain call is read without argparse, so no verb
    quietly costs every call of it the parser."""
    assert _read_quickly(_minimal_plain_call(verb))


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_every_declared_argument_matches_argparse(verb):
    """Each verb's full plain call is read without argparse, and the
    quick_args_checked fixture holds its namespace to argparse's: every
    argument VERBS declares is read as argparse reads it."""
    assert _read_quickly(_full_plain_call(verb))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["no-such-verb"], ["hom", "--m", "x.json"],
    ["ranks", "--rep", "x.json", "extra"], ["ranks", "--help"],
    ["pbw-fixed-points", "4", "1", "--lis", "x"], ["poset", "--type", "odd"],
])
def test_parser_messages_match_the_full_parser(argv, capsys):
    """A call _quick_args does not read goes to the full parser: run()
    prints and returns what that parser prints and exits with."""
    try:
        cli._build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = int(exc.code or 0)
    full = capsys.readouterr()
    assert code is not None
    assert _run(capsys, *argv) == (code, full.out, full.err)


def _sweep_module(rng, n, count, symmetric):
    """count random segments on n vertices, each with its reflection when
    symmetric (so a self-dual segment counts twice)."""
    mult = {}
    for _ in range(count):
        i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
        for seg in ((i, j), (n + 1 - j, n + 1 - i))[:2 if symmetric else 1]:
            mult[seg] = mult.get(seg, 0) + 1
    return core.Representation(n, mult)


def _walked(rng, start, moves, apply):
    """start after up to four random moves, each drawn from moves(current)."""
    cur = start
    for _ in range(4):
        options = list(moves(cur))
        if not options:
            break
        cur = apply(cur, rng.choice(options))
    return cur


def test_every_verb_on_a_large_valid_input(tmp_path, capsys):
    """One seeded valid call of each verb, and sym-path --table, in
    process: n = 100 for the rank and path verbs (n = 99 for the odd-neg
    pairs), n = 60 with 20 walls for the pbw verbs, pbw-face on the point
    pbw-interior prints.  Each exits 0, 1 or 2, prints nothing on stderr
    on 0 and one line otherwise, and the whole sweep stays under 10 s."""
    rng = random.Random(100)
    m = _sweep_module(rng, 100, 4, False)
    n = _walked(rng, m, degen.single_moves, degen.apply_move)
    em = _sweep_module(rng, 99, 2, True)
    en = _walked(rng, EpsilonRep(em, SymmetricType(99, -1)), symdegen.sym_moves,
                 symdegen.apply_sym_move).rep
    files = {name: _write(tmp_path, name + ".json", core.rep_to_json(rep))
             for name, rep in (("m", m), ("n", n), ("em", em), ("en", en))}
    files["ranks"] = _write(tmp_path, "ranks.json", core.ranks_to_json(core.ranks_of(m)))
    walls = ",".join(map(str, sorted(rng.sample(range(1, 60), 20))))
    dims = ",".join(map(str, core.dim_vector(_sweep_module(rng, 5, 2, True))))
    pair, sym_pair = ("--m", files["m"], "--n", files["n"]), \
        ("--m", files["em"], "--n", files["en"], "--type", "odd-neg")
    calls = [("ranks", "--rep", files["m"]), ("rep-of-ranks", "--rep", files["ranks"]),
             ("dual", "--rep", files["m"]), ("hom",) + pair, ("ext",) + pair,
             ("check-eps", "--rep", files["em"], "--type", "odd-neg"),
             ("degen-check",) + pair, ("degen-path",) + pair,
             ("sym-check",) + sym_pair, ("sym-path",) + sym_pair,
             ("sym-path", "--table") + sym_pair, ("sym-moves",) + sym_pair,
             ("pbw-build", "60", walls), ("pbw-weyl", "60", walls),
             ("pbw-interior", "60", walls),
             ("pbw-face", "60", walls, "--rep", str(tmp_path / "interior.json")),
             ("pbw-fixed-points", "60", walls), ("pbw-lemma-ui", "60", walls),
             ("poset", "--type", "odd-neg", "--dims", dims),
             ("oracle-verify", "--seed", str(rng.randrange(10 ** 6)), "--budget", "20"),
             ("render-coeff", "--rep", files["m"])]
    assert {call[0] for call in calls} == set(cli.VERBS)
    start = time.perf_counter()
    for call in calls:
        code, out, err = _run(capsys, *call)
        assert code in (0, 1, 2), call
        assert err.count("\n") == (1 if code else 0) and err.endswith("\n" if code else ""), \
            (call, err)
        if call[0] == "pbw-interior":
            (tmp_path / "interior.json").write_text(out)
    assert time.perf_counter() - start < 10
