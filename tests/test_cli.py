import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

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


def test_pbw_fixed_points_digit_limit(capsys, monkeypatch):
    """A count past the interpreter's int-to-string limit (lowered here to
    its minimum, 640 digits) is one InstanceTooLarge line and exit 1, not
    a ValueError from printing it.  It is raised before the count where
    2^n n! already clears the limit, else right after counting."""
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

        def uncounted(subset):
            raise AssertionError("counted although 2^n n! clears the limit")

        monkeypatch.setattr(pbw, "count_lagrangian_fixed_points", uncounted)
        for argv in (("278", "-"), ("1600", "-"), ("1600", "-", "--list")):
            code, out, err = _run(capsys, "pbw-fixed-points", *argv)
            assert (code, out) == (1, "") and err.count("\n") == 1
            assert err.startswith("InstanceTooLarge: the fixed-point count for n=%s "
                                  % argv[0])
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
