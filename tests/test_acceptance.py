"""Acceptance checks, one test per numbered criterion.

Each test prints a single PASS line with its measured runtime; stated
time budgets are asserted.  The helpers at the top are shared between
criteria so that the audit test (criterion 7) can replay exactly the
workloads of criteria 1 to 4 between counter resets.
"""

import itertools
import math
import random
import time
from functools import reduce

from sympdeg.core import (
    Representation, RankSequence, dim_vector, euler_form, hom_dim,
    modules_with_dims, ranks_of, rep_of,
)
from sympdeg import oracle
from sympdeg.coxeter import is_reduced
from sympdeg.degen import apply_move, generic_quotient
from sympdeg.errors import NoEmbedding
from sympdeg.pbw import (
    PbwSubset, check_lemma_ui, dynkin_face_contains, find_interior_point,
    fixed_point_chain, iprime, lagrangian_fixed_points, u_iprime_word,
    w_i_word, zero_root_vector,
)
from sympdeg.degen import AUDIT, reset_audit
from sympdeg.symdegen import (
    SYM_AUDIT, EpsilonRep, SymmetricType, is_epsilon_rank, is_epsilon_rep,
    reset_sym_audit, sym_degeneration_path,
)

ODD_NEG_5 = SymmetricType(5, -1)

EX1_M = Representation(5, {(1, 5): 6})
EX1_N_ROWS = [[6, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [6]]
EX1_PEELS = ["P_5", "P_4", "P_3"]
EX1_TABLE = {
    "M": [
        [[6, 6, 6, 6, 6], [6, 6, 6, 6], [6, 6, 6], [6, 6], [6]],
        [[5, 5, 5, 5, 4], [6, 6, 6, 5], [6, 6, 5], [6, 5], [5]],
        [[4, 4, 4, 4, 4], [5, 5, 4, 4], [6, 5, 4], [5, 4], [4]],
        [[3, 3, 3, 3, 2], [4, 4, 4, 3], [4, 4, 3], [4, 3], [3]],
    ],
    "N": [
        [[6, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [6]],
        [[5, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [5]],
        [[4, 4, 4, 3, 2], [5, 5, 4, 3], [6, 5, 4], [5, 4], [4]],
        [[3, 3, 3, 3, 2], [4, 4, 4, 3], [4, 4, 3], [4, 3], [3]],
    ],
    "Z": [
        [[6, 6, 6, 6, 6], [6, 6, 6, 6], [6, 6, 6], [6, 6], [6]],
        [[6, 5, 5, 5, 4], [6, 6, 6, 5], [6, 6, 5], [6, 5], [6]],
        [[6, 5, 4, 4, 4], [6, 5, 4, 4], [6, 5, 4], [6, 5], [6]],
        [[6, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [6]],
    ],
}

EX2_M = Representation(5, {(1, 2): 1, (1, 5): 2, (3, 3): 2, (4, 5): 1})
EX2_N = Representation(5, {(1, 1): 2, (1, 3): 1, (2, 2): 2, (3, 3): 2,
                           (3, 5): 1, (4, 4): 2, (5, 5): 2})
EX2_PEELS = ["P_3", "P_5", "P_5", "S_4", "S_4"]
EX2_TABLE = {
    "M": [
        [[3, 3, 2, 2, 2], [3, 2, 2, 2], [4, 2, 2], [3, 3], [3]],
        [[2, 2, 1, 0, 0], [2, 1, 0, 0], [2, 1, 1], [2, 2], [2]],
        [[1, 1, 1, 0, 0], [2, 1, 0, 0], [2, 1, 1], [2, 1], [1]],
        [[0, 0, 0, 0, 0], [2, 1, 0, 0], [2, 1, 0], [2, 0], [0]],
        [[0, 0, 0, 0, 0], [1, 1, 0, 0], [2, 1, 0], [1, 0], [0]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0], [0, 0], [0]],
    ],
    "N": [
        [[3, 1, 1, 0, 0], [3, 1, 0, 0], [4, 1, 1], [3, 1], [3]],
        [[2, 0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0], [2, 0], [2]],
        [[1, 0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0], [2, 0], [1]],
        [[0, 0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0], [2, 0], [0]],
        [[0, 0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0], [1, 0], [0]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0], [0, 0], [0]],
    ],
}

RUN_EXAMPLE = Representation(5, {(1, 4): 1, (2, 5): 1, (3, 3): 2})
RUN_EXAMPLE_ROWS = [[1, 1, 1, 1, 0], [2, 2, 2, 1], [4, 2, 1], [2, 1], [1]]


def _golden_walk_one():
    em = EpsilonRep(EX1_M, ODD_NEG_5)
    en = EpsilonRep(rep_of(RankSequence(5, EX1_N_ROWS)), ODD_NEG_5)
    steps = sym_degeneration_path(em, en)
    from sympdeg.symdegen import peel_label
    labels = [peel_label(s.L, 5) for s in steps if s.L is not None]
    assert labels == EX1_PEELS
    assert len(steps) == 4
    for idx, step in enumerate(steps):
        assert step.m_ranks.rows() == EX1_TABLE["M"][idx]
        assert step.n_ranks.rows() == EX1_TABLE["N"][idx]
        assert ranks_of(step.Z.rep).rows() == EX1_TABLE["Z"][idx]


def _golden_walk_two():
    em = EpsilonRep(EX2_M, ODD_NEG_5)
    en = EpsilonRep(EX2_N, ODD_NEG_5)
    steps = sym_degeneration_path(em, en)
    from sympdeg.symdegen import peel_label
    labels = [peel_label(s.L, 5) for s in steps if s.L is not None]
    assert labels == EX2_PEELS
    assert len(steps) == 6
    for idx, step in enumerate(steps):
        assert step.m_ranks.rows() == EX2_TABLE["M"][idx]
        assert step.n_ranks.rows() == EX2_TABLE["N"][idx]


def _roundtrip_example():
    r = ranks_of(RUN_EXAMPLE)
    assert r.rows() == RUN_EXAMPLE_ROWS
    assert rep_of(r) == RUN_EXAMPLE


def _order_equivalence_sweep():
    """Exhaustive two-sided check: rank domination iff reachability by
    symmetric moves, over every valid dimension vector with entries at
    most 2 on the split types with n = 3 and n = 4."""
    pairs = 0
    for sym in (SymmetricType(3, -1), SymmetricType(4, 1)):
        n = sym.n
        half = (n + 1) // 2
        for free in itertools.product(range(3), repeat=half):
            dims = list(free) + [free[n - 1 - v] for v in range(half, n)]
            ereps = [EpsilonRep(rep, sym)
                     for rep in modules_with_dims(tuple(dims))
                     if is_epsilon_rep(rep, sym)]
            ranks = [ranks_of(e.rep) for e in ereps]
            for a, ea in enumerate(ereps):
                closure = oracle.closure_enumerate(ea, "SYMMETRIC")
                for b, eb in enumerate(ereps):
                    dominated = ranks[a].dominates(ranks[b])
                    assert dominated == (eb.rep in closure), \
                        (sym.n, ea.rep.mult, eb.rep.mult)
                    pairs += 1
    return pairs


def test_criterion_01_golden_walk_one():
    start = time.perf_counter()
    _golden_walk_one()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print("PASS criterion 1: first golden walk, peels and all twelve "
          "matrices exact (%.3fs < 1s)" % elapsed)


def test_criterion_02_golden_walk_two():
    start = time.perf_counter()
    _golden_walk_two()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print("PASS criterion 2: second golden walk, peels and all matrices "
          "exact (%.3fs < 1s)" % elapsed)


def test_criterion_03_displayed_example_roundtrip():
    start = time.perf_counter()
    _roundtrip_example()
    elapsed = time.perf_counter() - start
    print("PASS criterion 3: displayed rank matrix reproduced and "
          "inverted exactly (%.3fs)" % elapsed)


def test_criterion_04_order_equivalence():
    start = time.perf_counter()
    pairs = _order_equivalence_sweep()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("PASS criterion 4: domination equals move closure on %d "
          "ordered pairs, zero exceptions (%.2fs < 2min)" % (pairs, elapsed))


def test_criterion_05_epsilon_criterion_equivalence():
    """Decomposition-side and rank-side symmetry checks agree everywhere.

    The decomposition check reads the multiset of segments: reflection
    must permute it, and in split types every self-dual segment must
    occur evenly often.  The rank check reads only the rank matrix:
    entrywise reflection symmetry, plus an evenness condition on the
    entries r(i, sigma(i)) in split types.  Both checks factor through
    the same two ingredients, so exhaustive agreement over every
    representation with n <= 5 and vertex dimensions <= 3, for both
    signs of the form, covers all four (parity, sign) classes.
    """
    start = time.perf_counter()
    total = 0
    for n in range(1, 6):
        segments = [(i, j) for i in range(1, n + 1)
                    for j in range(i, n + 1)]

        def descend(index, sums, acc):
            count_here = 0
            if index == len(segments):
                rep = Representation(n, dict(acc))
                r = ranks_of(rep)
                for eps in (1, -1):
                    sym = SymmetricType(n, eps)
                    assert is_epsilon_rep(rep, sym) == \
                        is_epsilon_rank(r, sym), (rep.mult, n, eps)
                return 1
            i, j = segments[index]
            cap = 3 - max(sums[v - 1] for v in range(i, j + 1))
            for count in range(cap + 1):
                if count:
                    acc[(i, j)] = count
                    for v in range(i, j + 1):
                        sums[v - 1] += count
                count_here += descend(index + 1, sums, acc)
                if count:
                    for v in range(i, j + 1):
                        sums[v - 1] -= count
                    del acc[(i, j)]
            return count_here

        total += descend(0, [0] * n, {})
    elapsed = time.perf_counter() - start
    assert total == 32348
    print("PASS criterion 5: both symmetry checks agree on %d "
          "representations x 2 signs, zero exceptions (%.2fs)"
          % (total, elapsed))


def test_criterion_06_formula_vs_oracle():
    start = time.perf_counter()
    rng = random.Random(20260819)
    instances = 0
    while instances < 500:
        n = rng.randint(1, 6)
        mult = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            mult[(i, j)] = mult.get((i, j), 0) + rng.randint(1, 2)
        rep = Representation(n, mult)
        real = oracle.realize_matrices(rep)
        assert oracle.rank_seq_bruteforce(real) == ranks_of(rep)
        other_mult = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            other_mult[(i, j)] = other_mult.get((i, j), 0) + 1
        other = Representation(n, other_mult)
        hom_brute = oracle.hom_dim_bruteforce(rep, other)
        ext_brute = oracle.ext_dim_bruteforce(rep, other)
        assert hom_dim(rep, other) == hom_brute
        assert hom_brute - ext_brute == euler_form(dim_vector(rep),
                                                   dim_vector(other))
        instances += 1
    elapsed = time.perf_counter() - start
    print("PASS criterion 6: ranks, hom, and the Euler identity match "
          "the matrix oracle on %d seeded instances (%.2fs)"
          % (instances, elapsed))


def test_criterion_07_move_audit():
    """Replays the workloads of criteria 1 to 4 between audit resets and
    checks that every move application re-verified its rank deltas."""
    start = time.perf_counter()
    reset_audit()
    reset_sym_audit()
    _golden_walk_one()
    _golden_walk_two()
    _roundtrip_example()
    _order_equivalence_sweep()
    assert AUDIT["applied"] == AUDIT["verified"]
    assert AUDIT["violations"] == 0
    assert SYM_AUDIT["violations"] == 0
    assert AUDIT["applied"] > 0
    assert SYM_AUDIT["applied"] > 0
    elapsed = time.perf_counter() - start
    print("PASS criterion 7: %d ordinary and %d symmetric move "
          "applications, all verified, zero violations (%.2fs)"
          % (AUDIT["applied"], SYM_AUDIT["applied"], elapsed))


def test_criterion_08_generic_quotient_consistency():
    start = time.perf_counter()
    rng = random.Random(40318)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 6)
        mult = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            mult[(i, j)] = mult.get((i, j), 0) + 1
        rep = Representation(n, mult)
        q = rng.randint(1, n)
        s = rng.randint(q, n)
        try:
            report = generic_quotient(rep, q, s)
        except NoEmbedding:
            continue
        assert ranks_of(reduce(apply_move, report.moves, rep)) == report.ranks_LQ
        checked += 1
    elapsed = time.perf_counter() - start
    print("PASS criterion 8: emitted moves reproduce the quotient ranks "
          "on %d seeded instances (%.2fs)" % (checked, elapsed))


def test_criterion_09_reducedness():
    start = time.perf_counter()
    words = 0
    for n in range(1, 7):
        for r in range(n):
            for combo in itertools.combinations(range(1, n), r):
                subset = PbwSubset.make(n, combo)
                assert is_reduced(w_i_word(subset))
                assert is_reduced(u_iprime_word(subset))
                words += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("PASS criterion 9: %d words over all subsets up to n=6, all "
          "reduced (%.2fs < 30s)" % (words, elapsed))


def test_criterion_10_dynkin_faces():
    start = time.perf_counter()
    faces = 0
    for n in range(1, 6):
        for r in range(n):
            for combo in itertools.combinations(range(1, n), r):
                subset = PbwSubset.make(n, combo)
                assert dynkin_face_contains(subset, zero_root_vector(n))
                point = find_interior_point(subset)
                assert dynkin_face_contains(subset, point, strict=True)
                faces += 1
    elapsed = time.perf_counter() - start
    print("PASS criterion 10: zero vector inside and strict interior "
          "point found for all %d faces up to n=5 (%.2fs)"
          % (faces, elapsed))


def _brute_fixed_points_no_degeneration(n):
    """Independent oracle: full flags grown one element at a time (valid
    because nothing is projected away), filtered by the pairing."""
    ground = list(range(1, 2 * n + 1))

    def dual(s):
        kill = {2 * n + 1 - j for j in s}
        return tuple(x for x in ground if x not in kill)

    chains = [((x,),) for x in ground]
    for v in range(2, 2 * n):
        grown = []
        for chain in chains:
            prev = chain[-1]
            for x in ground:
                if x not in prev:
                    grown.append(chain + (tuple(sorted(prev + (x,))),))
        chains = grown
    result = set()
    for chain in chains:
        if all(chain[2 * n - k - 1] == dual(chain[k - 1])
               for k in range(1, n + 1)):
            result.add(chain[:n])
    return result


def test_criterion_11_fixed_points():
    start = time.perf_counter()
    counts = []
    for n in range(1, 5):
        subset = PbwSubset.make(n, [])
        points = lagrangian_fixed_points(subset)
        counts.append(len(points))
        assert len(points) == 2 ** n * math.factorial(n)
        brute = _brute_fixed_points_no_degeneration(n)
        assert {fp.subsets for fp in points} == brute
        degenerate = set(iprime(subset))
        for fp in points:
            chain = fixed_point_chain(fp)
            assert [len(member) for member in chain] == \
                list(range(1, 2 * n))
            # middle member equals its own pairing dual
            middle = set(chain[n - 1])
            assert {2 * n + 1 - j for j in middle} == \
                set(range(1, 2 * n + 1)) - middle
            for v in range(1, 2 * n - 1):
                src = set(chain[v - 1])
                if v in degenerate:
                    src.discard(v + 1)
                assert src <= set(chain[v])
    elapsed = time.perf_counter() - start
    assert counts == [2, 8, 48, 384]
    print("PASS criterion 11: fixed point counts %s match the chain "
          "oracle, every point closed and Lagrangian (%.2fs)"
          % (counts, elapsed))


def test_criterion_12_lemma_report():
    start = time.perf_counter()
    reports = 0
    for n in range(1, 6):
        for r in range(n):
            for combo in itertools.combinations(range(1, n), r):
                subset = PbwSubset.make(n, combo)
                first = check_lemma_ui(subset)
                second = check_lemma_ui(subset)
                assert first == second
                assert len(first["rows"]) == 2 * n
                for row in first["rows"]:
                    assert set(row) == {"j", "ell", "h", "gap", "clause",
                                        "predicted", "actual", "agree",
                                        "range_anomaly"}
                    if row["clause"] == 2:
                        # the high prediction of the second clause always
                        # escapes the symbol range; the report must flag
                        # it rather than assert
                        assert row["range_anomaly"]
                summary = first["summary"]
                assert summary["rows"] == 2 * n
                assert summary["agree"] + summary["disagree"] + \
                    summary["no_prediction"] == 2 * n
                reports += 1
    elapsed = time.perf_counter() - start
    print("PASS criterion 12: %d complete lemma reports, deterministic, "
          "anomaly flagged, no assertion raised (%.2fs)"
          % (reports, elapsed))
