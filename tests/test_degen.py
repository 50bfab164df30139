import itertools
import os
import random
import subprocess
import sys
from functools import reduce

import pytest

import sympdeg
from sympdeg import core, degen
from sympdeg.core import (RankSequence, Representation, modules_with_dims,
                          ranks_of, rep_of)
from sympdeg.degen import (
    AUDIT, Move, apply_move, degenerates, degeneration_path, generic_quotient,
    reset_audit,
)
from sympdeg.errors import InsufficientMultiplicity, NoEmbedding, NotComparable


def _random_rep(rng, n, picks=4, count=None):
    """count random segments, or 1 to picks of them if count is None."""
    mult = {}
    for _ in range(rng.randint(1, picks) if count is None else count):
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        mult[(i, j)] = mult.get((i, j), 0) + 1
    return Representation(n, mult)


def _random_walk(rng, rep, steps):
    """Apply a few random moves, returning the endpoint."""
    from sympdeg.degen import single_moves
    cur = rep
    for _ in range(steps):
        options = list(single_moves(cur))
        if not options:
            break
        cur = apply_move(cur, rng.choice(options))
    return cur


def test_move_validation():
    Move.cut(1, 3, 2)
    Move.shift(1, 4, 2, 3)
    with pytest.raises(ValueError):
        Move.cut(2, 2, 2)
    with pytest.raises(ValueError):
        Move.cut(1, 3, 1)
    with pytest.raises(ValueError):
        Move.shift(1, 3, 1, 2)
    with pytest.raises(ValueError):
        Move.shift(1, 4, 3, 2)


@pytest.mark.parametrize("make, args", [
    (Move.cut, (True, 3, 2)), (Move.cut, (1, 3.0, 2)), (Move.cut, (1, 3, 2.0)),
    (Move.shift, (1, 4, 2, True)), (Move.shift, (1.0, 4, 2, 3)),
    (Move.shift, (1, 4, 2.5, 3)),
    # out of range too: the type is checked first
    (Move.cut, (3.0, 1, 2)), (Move.shift, (4, 1, 2, False)),
])
def test_move_rejects_bools_and_floats(make, args):
    """A bool or float vertex is a ValueError, not a key (True, 1) in the
    result or a TypeError from ranks_of."""
    with pytest.raises(ValueError, match="needs integer vertices"):
        make(*args)


def test_move_drops():
    """A move lowers the ranks by one on its box (Move._box), the entries
    (1, 2) and (1, 3) for the cut and (1, 4) for the shift, and nowhere
    else."""
    for move, rep, box in (
            (Move.cut(1, 3, 2), Representation(3, {(1, 3): 1}), (1, 1, 2, 3)),
            (Move.shift(1, 4, 2, 3), Representation(4, {(1, 4): 1, (2, 3): 1}),
             (1, 1, 4, 4))):
        assert move._box() == box
        drop = ranks_of(rep).sub(ranks_of(apply_move(rep, move)))
        k0, k1, l0, l1 = box
        assert {(k, l): v for k, l, v in drop.entries() if v} == {
            (k, l): 1 for k in range(k0, k1 + 1) for l in range(l0, l1 + 1)}


def test_apply_cut():
    rep = Representation(3, {(1, 3): 1})
    out = apply_move(rep, Move.cut(1, 3, 2))
    assert out == Representation(3, {(1, 1): 1, (2, 3): 1})


def test_apply_shift():
    rep = Representation(4, {(1, 4): 1, (2, 3): 1})
    out = apply_move(rep, Move.shift(1, 4, 2, 3))
    assert out == Representation(4, {(1, 3): 1, (2, 4): 1})


def test_apply_needs_segments():
    rep = Representation(3, {(1, 2): 1})
    with pytest.raises(InsufficientMultiplicity):
        apply_move(rep, Move.cut(1, 3, 2))


def test_audit_counters():
    reset_audit()
    rep = Representation(3, {(1, 3): 2})
    apply_move(rep, Move.cut(1, 3, 3))
    assert AUDIT["applied"] == AUDIT["verified"] == 1
    assert AUDIT["violations"] == 0
    reset_audit()
    assert AUDIT["applied"] == 0


def test_degenerates():
    m = Representation(3, {(1, 2): 1, (3, 3): 1})
    n = Representation(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    assert degenerates(m, n)
    assert not degenerates(n, m)
    assert degenerates(m, m)
    # different dimension vectors never compare
    assert not degenerates(m, Representation(3, {(1, 3): 1}))


def _check_quotient(report):
    """The carried quotient module is the one its rank table describes."""
    assert report.Q == rep_of(report.ranks_Q)
    assert ranks_of(report.Q) == report.ranks_Q


def _checking_quotients(monkeypatch):
    """Route degeneration_path's quotients through _check_quotient;
    returns the list of reports seen."""
    seen = []

    def checked(*args, **kwargs):
        report = generic_quotient(*args, **kwargs)
        _check_quotient(report)
        seen.append(report)
        return report

    monkeypatch.setattr(degen, "generic_quotient", checked)
    return seen


def test_generic_quotient_summand():
    m = Representation(3, {(1, 3): 1, (2, 3): 1})
    report = generic_quotient(m, 2, 3)
    assert report.moves == ()
    assert report.markers is None
    assert report.ranks_LQ == ranks_of(m)
    assert rep_of(report.ranks_Q) == Representation(3, {(1, 3): 1})
    assert report.Q == Representation(3, {(1, 3): 1})
    _check_quotient(report)
    # one copy of a repeated summand goes, the others stay
    report = generic_quotient(Representation(3, {(2, 3): 3, (1, 1): 1}), 2, 3)
    assert report.moves == ()
    assert report.Q == Representation(3, {(2, 3): 2, (1, 1): 1})
    _check_quotient(report)


def test_generic_quotient_cut_case():
    m = Representation(3, {(1, 3): 1})
    report = generic_quotient(m, 2, 3)
    assert report.moves == (Move.cut(1, 3, 2),)
    assert report.markers == (1, 2, 1, 2)
    assert report.ranks_LQ.rows() == [[1, 0, 0], [1, 1], [1]]
    assert rep_of(report.ranks_Q) == Representation(3, {(1, 1): 1})


def test_generic_quotient_shift_case():
    # the generic copy of U_{2,3} inside S_2 + U_{1,3} straddles both
    # summands, so removing it shifts rather than cuts
    m = Representation(3, {(2, 2): 1, (1, 3): 1})
    report = generic_quotient(m, 2, 3)
    assert report.moves == (Move.shift(1, 3, 2, 2),)
    assert report.markers == (1, 3, 1, 3)
    assert report.ranks_LQ == ranks_of(
        Representation(3, {(1, 2): 1, (2, 3): 1}))
    assert rep_of(report.ranks_Q) == Representation(3, {(1, 2): 1})


def test_generic_quotient_two_moves():
    m = Representation(4, {(2, 3): 1, (1, 4): 1})
    report = generic_quotient(m, 3, 4)
    assert report.moves == (Move.cut(2, 3, 3), Move.shift(1, 4, 3, 3))
    assert report.markers == (2, 3, 1, 4)
    assert ranks_of(reduce(apply_move, report.moves, m)) == report.ranks_LQ


def test_generic_quotient_errors():
    m = Representation(3, {(1, 1): 1})
    with pytest.raises(NoEmbedding):
        generic_quotient(m, 2, 3)
    with pytest.raises(ValueError):
        generic_quotient(m, 0, 3)
    with pytest.raises(ValueError):
        generic_quotient(m, 3, 2)


@pytest.mark.parametrize("q, s", [(2.0, 2), (True, 2), (2, 2.0), (1, True),
                                  ("2", 2), (None, 2)])
def test_generic_quotient_rejects_non_int_vertices(q, s):
    """A vertex that is a bool or not an int is a ValueError, not an
    escaped TypeError (2.0) or a silent run as another vertex (True as 1)."""
    M = Representation(3, {(1, 3): 1, (2, 2): 1})
    with pytest.raises(ValueError, match="out of range"):
        generic_quotient(M, q, s)


def test_generic_quotient_random_consistency():
    """Applying the emitted moves must land exactly on ranks_LQ."""
    rng = random.Random(23)
    checked = 0
    while checked < 120:
        n = rng.randint(2, 6)
        m = _random_rep(rng, n)
        q = rng.randint(1, n)
        s = rng.randint(q, n)
        try:
            report = generic_quotient(m, q, s)
        except NoEmbedding:
            continue
        got = ranks_of(reduce(apply_move, report.moves, m))
        assert got == report.ranks_LQ
        checked += 1


def _staircase_reference(R, q, s):
    """(moves, markers, rank rows of L + Q) of the quotient by U[q, s],
    from degen._staircase's docstring: t_l = min{k : f(k, l) = 0} for
    l = q..s, a corner (t_l, l) wherever t_l falls (t = q before the
    walk), and L + Q one rank below M at (k, l) with t_l <= k < q.  A
    corner (t, c) gives cut(t, e, q) if c = q, else shift(t, e, q, c - 1),
    where e is one less than the next corner's column, or s for the last.
    The markers are None when there is no corner."""
    r = R.r

    def f(k, l):
        return (r(q, l) - r(k, l)) - (r(q, s + 1) - r(k, s + 1))

    corners, rows, above = [], R.rows(), q
    for l in range(q, s + 1):
        t = min(k for k in range(1, q + 1) if f(k, l) == 0)
        if t < above:
            corners.append((t, l))
        above = t
        for k in range(t, q):
            rows[k - 1][l - k] -= 1
    ends = [c - 1 for _, c in corners[1:]] + [s]
    moves = tuple(Move.cut(t, e, q) if c == q else Move.shift(t, e, q, c - 1)
                  for (t, c), e in zip(corners, ends))
    return moves, corners[0] + corners[-1] if corners else None, rows


def test_generic_quotient_matches_staircase_reference():
    """Every module of every dims with n <= 5 and entries <= 2, quotiented
    by every segment that embeds: the moves, markers and ranks of L + Q
    are the staircase's, and the rows of M that the staircase leaves
    alone are reused as they are.  The staircase has no corner exactly
    when the segment splits off, and then the report is the split one:
    no moves or stages, markers None, L + Q = M, Q = M less one copy."""
    quotients = split = 0
    for n in range(1, 6):
        for dims in itertools.product(range(3), repeat=n):
            for m in modules_with_dims(dims):
                R = ranks_of(m)
                for q in range(1, n + 1):
                    for s in range(q, n + 1):
                        if R.r(q, s) == R.r(q, s + 1):
                            continue
                        # R passed in as the path builder does, so the
                        # reused rows can be told by identity
                        report = generic_quotient(m, q, s, _ranks=R)
                        moves, markers, rows = _staircase_reference(R, q, s)
                        assert report.moves == moves
                        assert report.markers == markers
                        assert report.ranks_LQ.rows() == rows
                        split_off = m.m(q, s) > 0
                        assert (markers is None) == split_off
                        assert (not degen._staircase(R, q, s)[1]) == split_off
                        lowest = q if markers is None else markers[2]
                        for i, (got, was) in enumerate(
                                zip(report.ranks_LQ._rows, R._rows), 1):
                            assert (got is was) == (not lowest <= i < q)
                        quotients += 1
                        if markers is None:
                            assert report.stages == ()
                            assert report.ranks_LQ == R
                            assert report.ranks_Q == R._less_segment(q, s)
                            mult = dict(m.mult)
                            degen._take(mult, (q, s))
                            assert report.Q == Representation(n, mult)
                            split += 1
    # 4,112 of them do not split
    assert (quotients, split) == (14176, 10064)


def test_degeneration_path_simple():
    m = Representation(3, {(1, 3): 1})
    n = Representation(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    path = degeneration_path(m, n)
    assert [move.kind for move, _ in path] == ["cut", "cut"]
    assert path[-1][1] == n


def test_degeneration_path_not_comparable():
    m = Representation(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    n = Representation(3, {(1, 3): 1})
    with pytest.raises(NotComparable):
        degeneration_path(m, n)


def test_degeneration_path_random():
    """Move-generated pairs always admit a path that replays to the
    target."""
    rng = random.Random(77)
    for _ in range(60):
        m = _random_rep(rng, rng.randint(2, 5), picks=3)
        n = _random_walk(rng, m, rng.randint(1, 3))
        path = degeneration_path(m, n)
        cur = m
        for move, shown in path:
            cur = apply_move(cur, move)
            assert shown == cur
        assert cur == n


NESTED = Representation(6, {(1, 6): 1, (2, 5): 1, (3, 4): 1})
NESTED_MOVES = (Move.cut(3, 4, 4), Move.shift(2, 5, 4, 4), Move.shift(1, 6, 4, 5))


def test_generic_quotient_three_nested_segments():
    """A generic U[4,6] passes through all three nested segments, so
    the staircase has three corners and the quotient needs three moves."""
    report = generic_quotient(NESTED, 4, 6)
    assert report.moves == NESTED_MOVES
    assert report.markers == (3, 4, 1, 6)
    assert rep_of(report.ranks_Q) == Representation(
        6, {(1, 5): 1, (2, 4): 1, (3, 3): 1})
    assert report.stages == (
        Representation(6, {(1, 6): 1, (2, 5): 1, (3, 3): 1, (4, 4): 1}),
        Representation(6, {(1, 6): 1, (2, 4): 1, (3, 3): 1, (4, 5): 1}),
        Representation(6, {(1, 5): 1, (2, 4): 1, (3, 3): 1, (4, 6): 1}))
    assert ranks_of(report.stages[-1]) == report.ranks_LQ
    assert report.Q == Representation(6, {(1, 5): 1, (2, 4): 1, (3, 3): 1})
    _check_quotient(report)


def test_generic_quotient_guard_survives_optimize():
    """The end-of-call check must not be an assert: under python -O the
    three-nested-segment quotient still returns its three moves, and
    moves that leave the ranks where they were still raise."""
    src = os.path.dirname(os.path.dirname(sympdeg.__file__))
    code = ("from sympdeg import degen\n"
            "from sympdeg.core import Representation\n"
            "M = Representation(6, {(1, 6): 1, (2, 5): 1, (3, 4): 1})\n"
            "print(repr(degen.generic_quotient(M, 4, 6).moves))\n"
            "degen._apply_audited = lambda rep, move, before: (rep, before)\n"
            "try:\n"
            "    degen.generic_quotient(M, 4, 6)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        repr(NESTED_MOVES), "moves do not realise the predicted generic quotient"]


@pytest.mark.parametrize("n, pairs", [(12, 10), (16, 10), (20, 10), (32, 6),
                                      (48, 2), (64, 2)])
def test_degeneration_path_seeded_large(monkeypatch, n, pairs):
    """Seeded pairs well past the exhaustive sizes: n segments, 2n random
    moves down, seed n.  Every path replays under audit to the target,
    and some quotient on the way needs three or more moves.  Each
    quotient module the path carries is the one its ranks describe."""
    reports = _checking_quotients(monkeypatch)
    rng = random.Random(n)
    for _ in range(pairs):
        m = _random_rep(rng, n, count=n)
        target = _random_walk(rng, m, 2 * n)
        cur, ranks = m, ranks_of(m)
        for move, shown in degeneration_path(m, target):
            cur, ranks = degen._apply_audited(cur, move, ranks)
            assert shown == cur
        assert cur == target
    assert max(len(report.moves) for report in reports) >= 3


def test_ranks_computed_once_per_module_along_paths(monkeypatch):
    """Paths carry rank matrices instead of recomputing them: at most 6
    ranks_of calls per emitted move over seeded n = 16 paths.  Every move
    is still audited against a fresh ranks_of of its output, so no path
    makes fewer calls than it emits moves."""
    calls = [0]

    def counting(rep):
        calls[0] += 1
        return ranks_of(rep)

    monkeypatch.setattr(degen, "ranks_of", counting)
    rng = random.Random(16)
    total_calls = total_moves = 0
    for _ in range(30):
        m = _random_rep(rng, 16, picks=12)
        n = _random_walk(rng, m, rng.randint(4, 10))
        calls[0] = 0
        path = degeneration_path(m, n)
        assert calls[0] >= len(path)
        total_calls += calls[0]
        total_moves += len(path)
    assert total_moves > 100
    assert total_calls <= 6 * total_moves


def test_audit_recomputes_output_ranks(monkeypatch):
    """The audit takes the input's ranks from the caller but always
    recomputes the output's: corrupted output ranks are a violation."""
    rep = Representation(3, {(1, 3): 1})
    out = Representation(3, {(1, 1): 1, (2, 3): 1})

    def corrupting(module):
        ranks = ranks_of(module)
        if module != out:
            return ranks
        rows = ranks.rows()
        rows[0][0] += 1
        return RankSequence(3, rows)

    reset_audit()
    monkeypatch.setattr(degen, "ranks_of", corrupting)
    with pytest.raises(AssertionError, match=r"rank check failed .* at \(1, 1\)"):
        apply_move(rep, Move.cut(1, 3, 2))
    assert AUDIT["violations"] == 1
    assert AUDIT["verified"] == 0
    reset_audit()


def test_degeneration_path_exhaustive_n4(monkeypatch):
    """Every rank-dominated pair at n = 4 with entries <= 2: the path
    replays move by move from M and ends at N, and each quotient module
    it carries is the one its ranks describe."""
    reports = _checking_quotients(monkeypatch)
    pairs = 0
    for dims in itertools.product(range(3), repeat=4):
        modules = modules_with_dims(dims)
        ranks = {rep: ranks_of(rep) for rep in modules}
        for m in modules:
            for n in modules:
                if not ranks[m].dominates(ranks[n]):
                    continue
                cur = m
                for move, stage in degeneration_path(m, n):
                    cur = apply_move(cur, move)
                    assert cur == stage
                assert cur == n
                pairs += 1
    assert pairs == 1859
    assert any(report.moves for report in reports)
    assert any(not report.moves for report in reports)


def test_path_builds_no_module_from_ranks(monkeypatch):
    """A path carries its quotient modules: on a seeded n = 20 pair it
    calls neither rep_of nor RankSequence.validate."""
    calls = {"rep_of": 0, "validate": 0}
    real_rep_of, real_validate = core.rep_of, RankSequence.validate

    def counting_rep_of(ranks):
        calls["rep_of"] += 1
        return real_rep_of(ranks)

    def counting_validate(self):
        calls["validate"] += 1
        return real_validate(self)

    for module in (core, degen, sympdeg):
        monkeypatch.setattr(module, "rep_of", counting_rep_of, raising=False)
    monkeypatch.setattr(RankSequence, "validate", counting_validate)
    rng = random.Random(20)
    m = _random_rep(rng, 20, count=20)
    target = _random_walk(rng, m, 40)
    path = degeneration_path(m, target)
    assert len(path) > 20 and path[-1][1] == target
    assert calls == {"rep_of": 0, "validate": 0}


def test_stalled_peel_raises_not_comparable(monkeypatch):
    """A quotient that stops dominating the rest of the target is not
    committed: the guard raises NotComparable."""
    real = degen.generic_quotient

    def short(cur, q, s, **kwargs):
        # same peeled segment, one U[1,1] short in the quotient
        report = real(cur, q, s, **kwargs)
        drop = ranks_of(Representation(cur.n, {(1, 1): 1}))
        return report._replace(ranks_Q=report.ranks_Q.sub(drop),
                               ranks_LQ=report.ranks_LQ.sub(drop))

    monkeypatch.setattr(degen, "generic_quotient", short)
    m = Representation(3, {(1, 3): 1})
    n = Representation(3, {(1, 1): 1, (2, 3): 1})
    with pytest.raises(NotComparable, match="no final segment of the target"):
        degeneration_path(m, n)


def test_apply_move_rejects_an_unknown_kind():
    rep = Representation(3, {(1, 3): 1})
    with pytest.raises(ValueError, match="^unknown move kind 'drop'$"):
        apply_move(rep, Move("drop", 1, 2, 2))
