import itertools
import os
import random
import subprocess
import sys

import pytest

import sympdeg
from sympdeg.core import (Representation, dim_vector, ext_dim, hom_dim,
                          modules_with_dims, ranks_of)
from sympdeg.errors import InstanceTooLarge, MismatchedQuiver
from sympdeg import core, degen, oracle, symdegen
from sympdeg.symdegen import EpsilonRep, SymmetricType


def _random_rep(rng, n):
    mult = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        mult[(i, j)] = mult.get((i, j), 0) + rng.randint(1, 2)
    return Representation(n, mult)


def test_exact_rank():
    assert oracle.exact_rank([[1, 2], [2, 4]]) == 1
    assert oracle.exact_rank([[1, 0], [0, 1]]) == 2
    assert oracle.exact_rank([]) == 0
    assert oracle.exact_rank([[0, 0, 0]]) == 0


def test_realize_matrices_shapes():
    rep = Representation(3, {(1, 2): 1, (2, 3): 2})
    real = oracle.realize_matrices(rep)
    assert [len(space) for space in real.spaces] == list(dim_vector(rep))
    # each map sends vertex v to v+1, so there are n-1 of them
    assert len(real.maps) == 2


def test_rank_oracle_matches_formula_exhaustive():
    segments = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    for a in segments:
        for b in segments:
            rep = Representation(3, {a: 1} if a == b else {a: 1, b: 1})
            real = oracle.realize_matrices(rep)
            assert oracle.rank_seq_bruteforce(real) == ranks_of(rep)


def test_rank_oracle_matches_formula_random():
    rng = random.Random(11)
    for _ in range(40):
        rep = _random_rep(rng, rng.randint(1, 6))
        real = oracle.realize_matrices(rep)
        assert oracle.rank_seq_bruteforce(real) == ranks_of(rep)


def test_hom_ext_oracle_segment_pairs():
    """Formula vs matrix computation on every ordered pair of segments,
    small quivers."""
    for n in (2, 3):
        segments = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for a in segments:
            for b in segments:
                ma = Representation(n, {a: 1})
                mb = Representation(n, {b: 1})
                assert hom_dim(ma, mb) == oracle.hom_dim_bruteforce(ma, mb)
                assert ext_dim(ma, mb) == oracle.ext_dim_bruteforce(ma, mb)


def test_hom_ext_oracle_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 5)
        a, b = _random_rep(rng, n), _random_rep(rng, n)
        assert hom_dim(a, b) == oracle.hom_dim_bruteforce(a, b)
        assert ext_dim(a, b) == oracle.ext_dim_bruteforce(a, b)


def test_epsilon_form_realization():
    # the constructor runs its own compatibility checks; failure raises
    cases = [
        (SymmetricType(3, -1), {(1, 3): 2}),
        (SymmetricType(3, -1), {(1, 2): 1, (2, 3): 1, (2, 2): 2}),
        (SymmetricType(3, 1), {(2, 2): 1, (1, 3): 1}),
        (SymmetricType(4, 1), {(1, 2): 1, (3, 4): 1, (2, 3): 2}),
        (SymmetricType(4, -1), {(1, 4): 2, (2, 3): 2}),
        (SymmetricType(5, -1), {(1, 4): 1, (2, 5): 1, (3, 3): 2}),
    ]
    for sym, mult in cases:
        erep = EpsilonRep(Representation(sym.n, mult), sym)
        real, forms = oracle.realize_epsilon_form(erep)
        assert len(forms) == sym.n


def test_closure_enumerate_ordinary():
    rep = Representation(2, {(1, 2): 1})
    closure = oracle.closure_enumerate(rep, "ORDINARY")
    assert len(closure) == 2
    assert Representation(2, {(1, 1): 1, (2, 2): 1}) in closure
    assert rep in closure


def test_closure_enumerate_symmetric():
    rep = Representation(3, {(1, 3): 2})
    erep = EpsilonRep(rep, SymmetricType(3, -1))
    closure = oracle.closure_enumerate(erep, "SYMMETRIC")
    assert rep in closure
    for other in closure:
        assert dim_vector(other) == dim_vector(rep)


def _count_ranks_of(monkeypatch, modules):
    """Patch ranks_of in each of modules to count its calls; returns the
    one-element list that holds the count."""
    calls = [0]

    def counting(rep):
        calls[0] += 1
        return ranks_of(rep)

    for module in modules:
        monkeypatch.setattr(module, "ranks_of", counting)
    return calls


def test_ordinary_closure_ranks_once_per_module(monkeypatch):
    """A seeded n = 6 ordinary closure computes ranks once per distinct
    module (the start's serving the size guard too) and still audits
    every edge: one check per move single_moves offers on each module."""
    rng = random.Random(3)
    mult = {}
    for _ in range(4):
        i = rng.randint(1, 6)
        j = rng.randint(i, 6)
        mult[(i, j)] = mult.get((i, j), 0) + 1
    rep = Representation(6, mult)
    calls = _count_ranks_of(monkeypatch, (core, degen))
    degen.reset_audit()
    closure = oracle.closure_enumerate(rep, "ORDINARY")
    edges = sum(len(list(degen.single_moves(m))) for m in closure)
    assert len(closure) == 119 and edges > 2 * len(closure)
    assert calls[0] == len(closure)
    assert degen.AUDIT == {"applied": edges, "verified": edges, "violations": 0}
    degen.reset_audit()


def test_symmetric_closure_ranks_once_per_constituent(monkeypatch):
    """A seeded odd-neg n = 5 symmetric closure computes ranks once for
    the size guard and, through the audit, once per constituent of each
    applied paired move; each new module keeps the ranks its audit
    returned."""
    rng = random.Random(3)
    sym = SymmetricType(5, -1)
    mult = {}
    for _ in range(2):
        i = rng.randint(1, 3)
        j = rng.randint(i, 6 - i)
        for seg in {(i, j), (6 - j, 6 - i)}:
            mult[seg] = mult.get(seg, 0) + (2 if i + j == 6 else 1)
    erep = EpsilonRep(Representation(5, mult), sym)
    calls = _count_ranks_of(monkeypatch, (core, degen, symdegen))
    symdegen.reset_sym_audit()
    closure = oracle.closure_enumerate(erep, "SYMMETRIC")
    applied = symdegen.SYM_AUDIT["applied"]
    assert symdegen.SYM_AUDIT["verified"] == applied and applied > len(closure) > 5
    assert calls[0] == 1 + 2 * applied
    symdegen.reset_sym_audit()


def _second_arrival_replaced(monkeypatch, wrong):
    """Patch degen._applied so that the second edge into the semisimple
    module of U[1,3] (from U[1,2] + U[3,3], after U[1,1] + U[2,3] reached
    it first) yields wrong instead: an edge whose predicted table the
    closure already holds."""
    real, arrivals = degen._applied, []
    semisimple = Representation(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1})

    def applied(rep, move):
        out = real(rep, move)
        if out == semisimple:
            arrivals.append(rep)
            if len(arrivals) == 2:
                return wrong
        return out

    monkeypatch.setattr(degen, "_applied", applied)
    return arrivals


def test_closure_audits_a_wrong_module_on_a_seen_table(monkeypatch):
    """An edge whose predicted table is already held is verified by that
    table only when it reaches the module that holds it; any other module
    is audited against its own ranks, and a second module with the held
    table raises as well."""
    start = Representation(3, {(1, 3): 1})
    assert len(oracle.closure_enumerate(start, "ORDINARY")) == 4
    # equal to the start, but its own object
    wrong = Representation(3, {(1, 3): 1})
    arrivals = _second_arrival_replaced(monkeypatch, wrong)
    degen.reset_audit()
    with pytest.raises(AssertionError, match=r"rank check failed for Move\(kind='cut'"):
        oracle.closure_enumerate(start, "ORDINARY")
    assert arrivals == [Representation(3, {(1, 1): 1, (2, 3): 1}),
                        Representation(3, {(1, 2): 1, (3, 3): 1})]
    assert degen.AUDIT["violations"] == 1
    # the same edge, with ranks_of made to give the wrong module the held table
    table = ranks_of(Representation(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1}))
    monkeypatch.setattr(core, "ranks_of",
                        lambda rep: table if rep is wrong else ranks_of(rep))
    del arrivals[:]
    with pytest.raises(AssertionError, match="have the same rank table"):
        oracle.closure_enumerate(start, "ORDINARY")
    degen.reset_audit()


def test_symmetric_closure_audits_a_wrong_module_on_a_seen_table(monkeypatch):
    """A SYMMETRIC edge whose audited table is already held by a
    different module raises, like its ORDINARY twin above."""
    erep = EpsilonRep(Representation(3, {(1, 3): 2}), SymmetricType(3, -1))
    held = ranks_of(erep.rep)
    real = symdegen._apply_sym_audited
    # every child is a proper degeneration of its parent, so none is the
    # start, whose table each edge is now made to report
    monkeypatch.setattr(symdegen, "_apply_sym_audited",
                        lambda cur, move, before: (real(cur, move, before)[0], held))
    with pytest.raises(AssertionError, match="have the same rank table"):
        oracle.closure_enumerate(erep, "SYMMETRIC")
    symdegen.reset_sym_audit()


def test_hom_dim_bruteforce_rejects_mismatched_chains():
    with pytest.raises(MismatchedQuiver, match="^need modules on the same chain$"):
        oracle.hom_dim_bruteforce(Representation(2, {(1, 2): 1}),
                                  Representation(3, {(1, 3): 1}))


def test_closure_budget():
    rep = Representation(4, {(1, 4): 4})
    with pytest.raises(InstanceTooLarge):
        oracle.closure_enumerate(rep, "ORDINARY", max_total=3)
    assert oracle.closure_enumerate(Representation(4), "ORDINARY",
                                    max_total=0) == {Representation(4)}


def test_closure_rejects_a_module_of_the_wrong_kind():
    """Each move kind needs its own module class; the wrong one used to
    fail with AttributeError deep inside the walk."""
    rep = Representation(3, {(1, 3): 2})
    erep = EpsilonRep(rep, SymmetricType(3, -1))
    with pytest.raises(ValueError, match="SYMMETRIC closures start from an EpsilonRep"):
        oracle.closure_enumerate(rep, "SYMMETRIC")
    with pytest.raises(ValueError, match="ORDINARY closures start from a Representation"):
        oracle.closure_enumerate(erep, "ORDINARY")
    with pytest.raises(ValueError, match="ORDINARY closures"):
        oracle.closure_enumerate({(1, 3): 2}, "ORDINARY")
    with pytest.raises(ValueError, match="move_kind must be"):
        oracle.closure_enumerate(rep, "ordinary")


@pytest.mark.parametrize("max_total", [True, False, 1.0, 120.5, "120", None, -1])
def test_closure_rejects_a_bad_guard(max_total):
    """A bool guard used to be read as the int 1 or 0."""
    with pytest.raises(ValueError, match="max_total must be a non-negative int"):
        oracle.closure_enumerate(Representation(2, {(1, 2): 1}), "ORDINARY",
                                 max_total=max_total)


def test_ordinary_closure_is_rank_domination():
    """Exhaustive over dimension vectors with n <= 5 and entries <= 2: the
    move closure of M is exactly the set of modules M rank-dominates."""
    closures = 0
    for n in range(1, 6):
        for dims in itertools.product(range(3), repeat=n):
            modules = modules_with_dims(dims)
            ranks = {rep: ranks_of(rep) for rep in modules}
            for rep in modules:
                below = {other for other in modules
                         if ranks[rep].dominates(ranks[other])}
                assert oracle.closure_enumerate(rep, "ORDINARY") == below
                closures += 1
    assert closures == 2735


def test_matrix_realization_shape_check_survives_optimize():
    """Mismatched map shapes raise ValueError under python -O as well."""
    src = os.path.dirname(os.path.dirname(sympdeg.__file__))
    code = ("from sympdeg.oracle import MatrixRealization\n"
            "try:\n"
            "    MatrixRealization(2, [[(0, 1)], [(0, 2), (1, 2)]], [[[1]]])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "map 1 has shape (1, 1), expected (2, 1)"
