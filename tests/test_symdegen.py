import itertools
import random

import pytest

from sympdeg import symdegen
from sympdeg.core import (Representation, RankSequence, modules_with_dims,
                          ranks_of, rep_of, sigma)
from sympdeg.degen import Move, move_to_json
from sympdeg.errors import (
    InvalidRankSequence, MismatchedType, NoEmbedding, NotComparable,
    NotEpsilon, NotSplitType,
)
from sympdeg.symdegen import (
    SYM_AUDIT, EpsilonRep, SymMove, SymmetricType,
    apply_sym_move, is_epsilon_rank, is_epsilon_rep, peel_label,
    perp_quotient_ranks, reset_sym_audit, sym_degenerates,
    sym_degeneration_path, sym_move_refinement, symmove_from_json,
)

# The two worked degeneration walks, frozen end to end.  Rows are
# [r_{i,i}, ..., r_{i,n}] per start vertex i.

EX1_M = Representation(5, {(1, 5): 6})
EX1_N_ROWS = [[6, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [6]]
EX1_PEELS = [(5, 5), (4, 5), (3, 5), None]
EX1_LABELS = ["P_5", "P_4", "P_3"]
EX1_M_ROWS = [
    [[6, 6, 6, 6, 6], [6, 6, 6, 6], [6, 6, 6], [6, 6], [6]],
    [[5, 5, 5, 5, 4], [6, 6, 6, 5], [6, 6, 5], [6, 5], [5]],
    [[4, 4, 4, 4, 4], [5, 5, 4, 4], [6, 5, 4], [5, 4], [4]],
    [[3, 3, 3, 3, 2], [4, 4, 4, 3], [4, 4, 3], [4, 3], [3]],
]
EX1_N_ROWSEQ = [
    [[6, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [6]],
    [[5, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [5]],
    [[4, 4, 4, 3, 2], [5, 5, 4, 3], [6, 5, 4], [5, 4], [4]],
    [[3, 3, 3, 3, 2], [4, 4, 4, 3], [4, 4, 3], [4, 3], [3]],
]
EX1_Z_ROWS = [
    [[6, 6, 6, 6, 6], [6, 6, 6, 6], [6, 6, 6], [6, 6], [6]],
    [[6, 5, 5, 5, 4], [6, 6, 6, 5], [6, 6, 5], [6, 5], [6]],
    [[6, 5, 4, 4, 4], [6, 5, 4, 4], [6, 5, 4], [6, 5], [6]],
    [[6, 5, 4, 3, 2], [6, 5, 4, 3], [6, 5, 4], [6, 5], [6]],
]

EX2_M = Representation(5, {(1, 2): 1, (1, 5): 2, (3, 3): 2, (4, 5): 1})
EX2_N = Representation(5, {(1, 1): 2, (1, 3): 1, (2, 2): 2, (3, 3): 2,
                           (3, 5): 1, (4, 4): 2, (5, 5): 2})
EX2_PEELS = [(3, 5), (5, 5), (5, 5), (4, 4), (4, 4), None]
EX2_LABELS = ["P_3", "P_5", "P_5", "S_4", "S_4"]
EX2_SUPPORTS = [(1, 5), (1, 5), (1, 5), (2, 4), (2, 4), (3, 3)]
EX2_M_ROWS = [
    [[3, 3, 2, 2, 2], [3, 2, 2, 2], [4, 2, 2], [3, 3], [3]],
    [[2, 2, 1, 0, 0], [2, 1, 0, 0], [2, 1, 1], [2, 2], [2]],
    [[1, 1, 1, 0, 0], [2, 1, 0, 0], [2, 1, 1], [2, 1], [1]],
    [[0, 0, 0, 0, 0], [2, 1, 0, 0], [2, 1, 0], [2, 0], [0]],
    [[0, 0, 0, 0, 0], [1, 1, 0, 0], [2, 1, 0], [1, 0], [0]],
    [[0, 0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0], [0, 0], [0]],
]
EX2_N_ROWS = [
    [[3, 1, 1, 0, 0], [3, 1, 0, 0], [4, 1, 1], [3, 1], [3]],
    [[2, 0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0], [2, 0], [2]],
    [[1, 0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0], [2, 0], [1]],
    [[0, 0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0], [2, 0], [0]],
    [[0, 0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0], [1, 0], [0]],
    [[0, 0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0], [0, 0], [0]],
]

ODD_NEG_5 = SymmetricType(5, -1)


def _ex1_pair():
    n = rep_of(RankSequence(5, EX1_N_ROWS))
    return (EpsilonRep(EX1_M, ODD_NEG_5), EpsilonRep(n, ODD_NEG_5))


def _ex2_pair():
    return (EpsilonRep(EX2_M, ODD_NEG_5), EpsilonRep(EX2_N, ODD_NEG_5))


def test_split_table():
    assert SymmetricType(3, -1).split
    assert SymmetricType(4, 1).split
    assert not SymmetricType(3, 1).split
    assert not SymmetricType(4, -1).split


def test_is_epsilon_rep():
    sym = SymmetricType(3, -1)
    assert is_epsilon_rep(Representation(3, {(1, 3): 2}), sym)
    # self-dual segment with odd multiplicity fails in a split type
    assert not is_epsilon_rep(Representation(3, {(1, 3): 1}), sym)
    # non-split types only ask for reflection symmetry
    assert is_epsilon_rep(Representation(3, {(1, 3): 1}), SymmetricType(3, 1))
    assert not is_epsilon_rep(Representation(3, {(1, 2): 1}), sym)


def test_is_epsilon_rank_matches_rep():
    sym = SymmetricType(3, -1)
    good = Representation(3, {(1, 2): 1, (2, 3): 1})
    assert is_epsilon_rank(ranks_of(good), sym)
    bad = Representation(3, {(2, 2): 1})
    assert not is_epsilon_rank(ranks_of(bad), sym)


def test_epsilon_rep_constructor():
    with pytest.raises(NotEpsilon):
        EpsilonRep(Representation(3, {(1, 2): 1}), SymmetricType(3, -1))
    erep = EpsilonRep(Representation(3, {(1, 3): 2}), SymmetricType(3, -1))
    assert erep.sym.split


def test_sym_move_expand():
    cut = SymMove.symcut(1, 4, 2)
    first, second = cut.expand(SymmetricType(5, -1))
    assert first == Move.cut(1, 4, 3)
    assert second == Move.cut(2, 5, 4)
    shift = SymMove.symshift(1, 5, 2, 3)
    first, second = shift.expand(SymmetricType(5, -1))
    assert first == Move.shift(1, 5, 2, 3)
    assert second == Move.shift(1, 5, 3, 4)


def test_sym_move_validation():
    with pytest.raises(ValueError):
        SymMove.symcut(2, 2, 2)
    with pytest.raises(ValueError):
        SymMove.symshift(2, 4, 2, 3)


def test_sym_move_json():
    for move in (SymMove.symcut(1, 4, 2), SymMove.symshift(1, 5, 2, 3)):
        assert symmove_from_json(move_to_json(move)) == move


def test_apply_sym_move():
    erep = EpsilonRep(Representation(3, {(1, 3): 2}), SymmetricType(3, -1))
    out = apply_sym_move(erep, SymMove.symcut(1, 3, 1))
    assert out.rep == Representation(3, {(1, 1): 1, (2, 3): 1,
                                         (1, 2): 1, (3, 3): 1})


def test_apply_sym_move_needs_split():
    erep = EpsilonRep(Representation(3, {(1, 3): 1}), SymmetricType(3, 1))
    with pytest.raises(NotSplitType):
        apply_sym_move(erep, SymMove.symcut(1, 3, 1))


def test_sym_degenerates():
    em, en = _ex1_pair()
    assert sym_degenerates(em, en)
    assert not sym_degenerates(en, em)
    with pytest.raises(MismatchedType):
        sym_degenerates(em, EpsilonRep(Representation(3, {(1, 3): 2}),
                                       SymmetricType(3, -1)))


def test_golden_walk_one():
    em, en = _ex1_pair()
    steps = sym_degeneration_path(em, en)
    assert [s.L for s in steps] == EX1_PEELS
    assert [peel_label(s.L, 5) for s in steps if s.L] == EX1_LABELS
    assert [s.support_interval for s in steps] == [(1, 5)] * 4
    for step, m_rows, n_rows, z_rows in zip(
            steps, EX1_M_ROWS, EX1_N_ROWSEQ, EX1_Z_ROWS):
        assert step.m_ranks.rows() == m_rows
        assert step.n_ranks.rows() == n_rows
        assert step.z_ranks.rows() == z_rows
    assert steps[-1].z_ranks == ranks_of(en.rep)


def test_golden_walk_two():
    em, en = _ex2_pair()
    steps = sym_degeneration_path(em, en)
    assert [s.L for s in steps] == EX2_PEELS
    assert [peel_label(s.L, 5) for s in steps if s.L] == EX2_LABELS
    assert [s.support_interval for s in steps] == EX2_SUPPORTS
    for step, m_rows, n_rows in zip(steps, EX2_M_ROWS, EX2_N_ROWS):
        assert step.m_ranks.rows() == m_rows
        assert step.n_ranks.rows() == n_rows
    assert steps[-1].z_ranks == ranks_of(en.rep)


def test_perp_quotient_golden_step():
    em, _ = _ex2_pair()
    got = perp_quotient_ranks(em, 3)
    assert got.rows() == EX2_M_ROWS[1]


def test_perp_quotient_errors():
    em, _ = _ex2_pair()
    with pytest.raises(ValueError):
        perp_quotient_ranks(em, 0)
    zero = EpsilonRep(Representation(3, {}), SymmetricType(3, -1))
    with pytest.raises(NoEmbedding):
        perp_quotient_ranks(zero, 1)
    nonsplit = EpsilonRep(Representation(3, {(1, 3): 1}), SymmetricType(3, 1))
    with pytest.raises(NotSplitType):
        perp_quotient_ranks(nonsplit, 1)


def test_path_needs_comparability():
    em, en = _ex1_pair()
    with pytest.raises(NotComparable):
        sym_degeneration_path(en, em)


def test_path_trivial():
    em, _ = _ex1_pair()
    steps = sym_degeneration_path(em, em)
    assert len(steps) == 1
    assert steps[0].L is None


def _replay(start, moves):
    for move in moves:
        start = apply_sym_move(start, move)
    return start


def test_refinement_found():
    start = EpsilonRep(Representation(3, {(1, 3): 2}), SymmetricType(3, -1))
    target = EpsilonRep(
        Representation(3, {(1, 1): 1, (2, 3): 1, (1, 2): 1, (3, 3): 1}),
        SymmetricType(3, -1))
    assert _replay(start, sym_move_refinement(start, target)) == target


def test_refinement_ignores_budget():
    """The walk has no search to bound: budget is accepted and ignored,
    even at 0, and the chain still reaches the target."""
    em, en = _ex1_pair()
    moves = sym_move_refinement(em, en, budget=0)
    assert moves == sym_move_refinement(em, en)
    assert _replay(em, moves) == en


def test_refinement_identity():
    em, _ = _ex1_pair()
    assert sym_move_refinement(em, em) == []


def test_refinement_stall(monkeypatch):
    """A walk with no paired move left to try raises NotComparable instead
    of looping or returning a partial chain."""
    em, en = _ex1_pair()
    monkeypatch.setattr(symdegen, "sym_moves", lambda erep: iter(()))
    with pytest.raises(NotComparable, match="contradicts rank domination"):
        sym_move_refinement(em, en)


def _random_pair(n, seed):
    """A split-type epsilon module with n // 2 random segments, each with
    its reflection, and the module n random paired moves below it."""
    rng = random.Random(seed)
    sym = SymmetricType(n, 1 if n % 2 == 0 else -1)
    mult = {}
    for _ in range(n // 2):
        i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
        for seg in ((i, j), (sigma(j, n), sigma(i, n))):
            mult[seg] = mult.get(seg, 0) + 1
    start = cur = EpsilonRep(Representation(n, mult), sym)
    for _ in range(n):
        options = list(symdegen.sym_moves(cur))
        if not options:
            break
        cur = apply_sym_move(cur, rng.choice(options))
    return start, cur


@pytest.mark.parametrize("n", [9, 12, 17, 24, 33])
def test_refinement_seeded(n):
    """The walk reaches every seeded target.  At n = 12, seed 0 needs 10
    paired moves; a breadth-first search over paired moves expands more
    than 2000 states before it finds a chain there."""
    for seed in range(4):
        start, target = _random_pair(n, seed)
        moves = sym_move_refinement(start, target)
        assert _replay(start, moves) == target
        if (n, seed) == (12, 0):
            assert len(moves) == 10


def test_sym_audit():
    reset_sym_audit()
    erep = EpsilonRep(Representation(3, {(1, 3): 2}), SymmetricType(3, -1))
    apply_sym_move(erep, SymMove.symcut(1, 3, 1))
    assert SYM_AUDIT["applied"] == 1
    assert SYM_AUDIT["violations"] == 0
    reset_sym_audit()


def test_peel_label():
    assert peel_label((3, 5), 5) == "P_3"
    assert peel_label((4, 4), 5) == "S_4"
    assert peel_label((2, 4), 5) == "U[2,4]"


def test_choose_peel_errors_propagate(monkeypatch):
    """The one peel of a step is committed or fails: an error from the
    perpendicular quotient's validation, a rank-table error included,
    propagates instead of moving on to another segment."""
    class Broken:
        def __init__(self, error):
            self.error = error

        def validate(self):
            raise self.error

    em, en = _ex1_pair()
    for error in (ZeroDivisionError("not a rank-table problem"),
                  InvalidRankSequence("bad perpendicular quotient")):
        monkeypatch.setattr(symdegen, "_perp_ranks", lambda *args: Broken(error))
        with pytest.raises(type(error)):
            sym_degeneration_path(em, en)


def test_split_types_exhaustive():
    """Every epsilon module of the split types with n = 2..7 and entries
    <= 2: each paired move from sym_moves applies, every rank-dominated
    pair M > N has a paired-move chain that replays from M to N, and its
    path replays from M to N through epsilon stages with one dimension
    vector, each dominated by the stage before it."""
    modules = moves = pairs = 0
    for n in range(2, 8):
        sym = SymmetricType(n, 1 if n % 2 == 0 else -1)
        for half in itertools.product(range(3), repeat=(n + 1) // 2):
            dims = half + half[:n // 2][::-1]
            ereps = [EpsilonRep(rep, sym) for rep in modules_with_dims(dims)
                     if is_epsilon_rep(rep, sym)]
            ranks = {e: ranks_of(e.rep) for e in ereps}
            modules += len(ereps)
            for e in ereps:
                for move in symdegen.sym_moves(e):
                    apply_sym_move(e, move)
                    moves += 1
            for m in ereps:
                for target in ereps:
                    if m == target or not ranks[m].dominates(ranks[target]):
                        continue
                    assert _replay(m, sym_move_refinement(m, target)) == target
                    steps = sym_degeneration_path(m, target)
                    assert steps[0].Z == m and steps[-1].Z == target
                    before = ranks[m]
                    for step in steps[1:]:
                        assert is_epsilon_rep(step.Z.rep, sym)
                        here = ranks_of(step.Z.rep)
                        assert here.diagonal() == before.diagonal()
                        assert before.dominates(here)
                        before = here
                    pairs += 1
    # 437 modules besides the six zero modules
    assert (modules, moves, pairs) == (443, 1233, 1300)
