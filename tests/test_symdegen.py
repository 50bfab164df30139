import hashlib
import itertools
import json
import random

import pytest

from sympdeg import cli, core, degen, symdegen
from sympdeg.core import (Representation, RankSequence, modules_with_dims,
                          ranks_of, rep_of, sigma)
from sympdeg.degen import Move
from sympdeg.errors import (
    InsufficientMultiplicity, InvalidRankSequence, MismatchedQuiver, MismatchedType,
    NoEmbedding, NotComparable, NotEpsilon, NotSplitType, SympdegError,
)
from sympdeg.symdegen import (
    SYM_AUDIT, EpsilonRep, SymMove, SymmetricType,
    apply_sym_move, is_epsilon_rank, is_epsilon_rep, peel_label,
    perp_quotient_ranks, reset_sym_audit, sym_degenerates,
    sym_degeneration_path, sym_move_refinement,
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


@pytest.mark.parametrize("n, epsilon", [
    (True, 1), (3, True), (3.0, -1), (3, -1.0), (2.5, 1), (3, "1"),
])
def test_symmetric_type_rejects_bools_and_non_integers(n, epsilon):
    """True in (-1, 1) holds and True >= 1, so a bool passed both range
    checks and was kept."""
    with pytest.raises(ValueError):
        SymmetricType(n, epsilon)


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
        assert ranks_of(step.Z.rep).rows() == z_rows
    assert steps[-1].Z == en


def test_golden_walk_two():
    em, en = _ex2_pair()
    steps = sym_degeneration_path(em, en)
    assert [s.L for s in steps] == EX2_PEELS
    assert [peel_label(s.L, 5) for s in steps if s.L] == EX2_LABELS
    assert [s.support_interval for s in steps] == EX2_SUPPORTS
    for step, m_rows, n_rows in zip(steps, EX2_M_ROWS, EX2_N_ROWS):
        assert step.m_ranks.rows() == m_rows
        assert step.n_ranks.rows() == n_rows
    assert steps[-1].Z == en


def test_perp_quotient_golden_step():
    em, _ = _ex2_pair()
    got = perp_quotient_ranks(em, 3)
    assert got.rows() == EX2_M_ROWS[1]


def _guard_cases():
    """(call, its arguments, the exception it raises or the value it
    returns) for the opening guard of every order entry point."""
    on3, on4 = Representation(3, {(1, 3): 2}), Representation(4, {(1, 4): 1})
    split, nonsplit = SymmetricType(3, -1), SymmetricType(3, 1)
    em, en = EpsilonRep(on3, split), EpsilonRep(on3, nonsplit)
    parts = Representation(3, {(1, 2): 2, (3, 3): 2})
    cut = EpsilonRep(Representation(3, {(1, 2): 1, (2, 3): 1, (1, 1): 1, (3, 3): 1}),
                     split)
    return [
        (degen.degenerates, (on3, Representation(3, {(1, 2): 1})), False),
        (degen.degenerates, (on3, on4), MismatchedQuiver),
        (degen.degeneration_path, (on3, on4), MismatchedQuiver),
        (degen.degeneration_path, (parts, on3), NotComparable),
        (sym_degeneration_path, (em, en), MismatchedType),
        (sym_move_refinement, (em, en), MismatchedType),
        (sym_degeneration_path, (en, en), NotSplitType),
        (sym_move_refinement, (en, en), NotSplitType),
        (sym_degeneration_path, (cut, em), NotComparable),
        (sym_move_refinement, (cut, em), NotComparable),
        (perp_quotient_ranks,
         (EpsilonRep(Representation(3, {(1, 1): 1, (3, 3): 1}), split), 2),
         NoEmbedding),
    ]


GUARD_CASES = _guard_cases()


@pytest.mark.parametrize("call, args, expected", GUARD_CASES, ids=[
    "%s-%s" % (call.__name__, getattr(want, "__name__", want))
    for call, _, want in GUARD_CASES])
def test_order_guards(call, args, expected):
    """Each order entry point answers a pair it cannot relate from its
    opening guard: the domination order of degen._dominated_ranks, led
    in the symmetric walks by the type checks of symdegen._split_pair."""
    if isinstance(expected, type):
        with pytest.raises(expected):
            call(*args)
    else:
        assert call(*args) == expected


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


@pytest.mark.parametrize("make, args", [
    (SymMove.symcut, (True, 3, 1)), (SymMove.symcut, (1, 3.0, 1)),
    (SymMove.symcut, (1, 3, 1.5)), (SymMove.symshift, (1, 5, 2, True)),
    (SymMove.symshift, (1, 5.0, 2, 3)), (SymMove.symshift, (5, 1, 2.0, 3)),
])
def test_symmove_rejects_bools_and_floats(make, args):
    with pytest.raises(ValueError, match="needs integer vertices"):
        make(*args)


@pytest.mark.parametrize("q", [3.0, True, 2.5])
def test_perp_quotient_rejects_non_int_vertex(q):
    em, _ = _ex2_pair()
    with pytest.raises(ValueError, match="must be an int"):
        perp_quotient_ranks(em, q)


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
    """The refinement has no search to bound: budget is accepted and
    ignored, even at 0, and the chain still reaches the target."""
    em, en = _ex1_pair()
    moves = sym_move_refinement(em, en, budget=0)
    assert moves == sym_move_refinement(em, en)
    assert _replay(em, moves) == en


def test_refinement_identity():
    em, _ = _ex1_pair()
    assert sym_move_refinement(em, em) == []


def test_refinement_stall(monkeypatch):
    """Paired moves that change nothing leave the chain short of the
    target: the endpoint check raises AssertionError instead of
    returning a partial chain.  The stand-in is the refinement's own
    audited application, which the peel does not use."""
    em, en = _ex1_pair()
    monkeypatch.setattr(symdegen, "_apply_sym_audited",
                        lambda erep, move, before: (erep, before))
    with pytest.raises(AssertionError, match="paired moves from the peel end on"):
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


def _replay_by_stage(steps, moves):
    """Replay moves, a refinement of the peel steps, one peel step at a
    time: the paired moves of each step, one per corner move of the
    staircase of its source by L, must take its Z to the next step's Z,
    and none may be left over.  Returns the number of peel steps."""
    chain = iter(moves)
    for here, after in zip(steps, steps[1:]):
        corners = len(degen._staircase(here.m_ranks, *here.L)[0])
        assert _replay(here.Z, itertools.islice(chain, corners)) == after.Z, here.L
    assert next(chain, None) is None
    return len(steps) - 1


def _sym_moves_double_loop(erep):
    """sym_moves by its own pair of loops over the sorted segments: all
    symcuts, then all symshifts."""
    segs = sorted(erep.rep.mult)
    moves = [SymMove.symcut(t, s, q) for (t, s) in segs for q in range(t, s)]
    return moves + [SymMove.symshift(t, s, q, r) for (t, s) in segs
                    for (q, r) in segs if t < q <= r < s]


def test_sym_moves_follow_single_moves():
    """On seeded epsilon modules of both split types, n <= 9, sym_moves
    gives one paired move per single_moves entry, in its order, whose
    first constituent is that entry; the list is the double loop's."""
    kinds = []
    for n in range(2, 10):
        for seed in range(10):
            for erep in _random_pair(n, seed):
                got = list(symdegen.sym_moves(erep))
                assert got == _sym_moves_double_loop(erep), (n, seed)
                assert [mv.expand(erep.sym)[0] for mv in got] == \
                    list(degen.single_moves(erep.rep)), (n, seed)
                kinds += [mv.kind for mv in got]
    assert len(kinds) == 935 and set(kinds) == {"symcut", "symshift"}


@pytest.mark.parametrize("n", [9, 12, 17, 24, 33, 65])
def test_refinement_seeded(n):
    """The refinement reaches every seeded target, at n = 65 too, where it
    runs in about the peel's time, and passes through every stage of the
    peel on the way.  At n = 12, seed 0 the peel gives 12 paired moves; a
    breadth-first search over paired moves expands more than 2000 states
    before it finds a chain there."""
    for seed in range(4):
        start, target = _random_pair(n, seed)
        moves = sym_move_refinement(start, target)
        steps = sym_degeneration_path(start, target)
        assert steps[0].Z == start and steps[-1].Z == target
        assert _replay_by_stage(steps, moves) > 0
        if (n, seed) == (12, 0):
            assert len(moves) == 12


def _fits(slack, boxes):
    """Is there room in slack for the drops of two moves added together:
    one at every entry of either box, two where the boxes overlap?"""
    (a0, a1, b0, b1), (c0, c1, d0, d1) = boxes
    overlap = (max(a0, c0), min(a1, c1), max(b0, d0), min(b1, d1))
    return all(min(slack._rows[k - 1][l0 - k:l1 - k + 1], default=need) >= need
               for (k0, k1, l0, l1), need in ((boxes[0], 1), (boxes[1], 1), (overlap, 2))
               for k in range(k0, k1 + 1))


def _reference_refinement(start, target):
    """The walk by a slack test: each step commits the first sym_moves
    entry whose two constituents' boxes, added together, fit inside
    ranks(cur) - ranks(target)."""
    R, tgt = symdegen._split_pair(start, target)
    cur, moves = start, []
    while cur.rep != target.rep:
        slack = R.sub(tgt)
        move = next((mv for mv in symdegen.sym_moves(cur)
                     if _fits(slack, [m._box() for m in mv.expand(cur.sym)])), None)
        if move is None:
            raise NotComparable("no paired move fits")
        cur = apply_sym_move(cur, move)
        R = ranks_of(cur.rep)
        moves.append(move)
    return moves


def _walk_outcome(walk, start, target):
    """The moves of walk(start, target), or the class of its error."""
    try:
        return walk(start, target)
    except SympdegError as exc:
        return type(exc)


def _check_against_reference(start, target):
    """The refinement's outcome on (start, target) against the reference
    walk's: the same error class, or a chain that replays from start to
    target where the reference finds one.  Returns the refinement's
    moves or its error class."""
    got = _walk_outcome(sym_move_refinement, start, target)
    want = _walk_outcome(_reference_refinement, start, target)
    if isinstance(want, list):
        assert isinstance(got, list) and _replay(start, got) == target, (start, target)
    else:
        assert got is want, (start, target)
    return got


def test_refinement_matches_reference_exhaustive():
    """On every ordered pair of split-type epsilon modules with one
    dimension vector, n <= 6 and entries <= 2, the refinement raises the
    reference walk's error class, or gives a chain that replays to the
    target where the reference walk finds one."""
    pairs = moves = 0
    for n in range(1, 7):
        sym = SymmetricType(n, 1 if n % 2 == 0 else -1)
        for half in itertools.product(range(3), repeat=(n + 1) // 2):
            dims = half + half[:n // 2][::-1]
            ereps = [EpsilonRep(rep, sym)
                     for rep in symdegen.epsilon_modules_with_dims(dims, sym)]
            for m, target in itertools.product(ereps, repeat=2):
                got = _check_against_reference(m, target)
                pairs += 1
                moves += len(got) if isinstance(got, list) else 0
    assert (pairs, moves) == (1247, 606)


@pytest.mark.parametrize("n", [7, 9])
def test_refinement_matches_reference_seeded(n):
    """Seeded odd-neg pairs, in both orders: the refinement's chain
    replays to the target as the reference walk's does, and the reversed
    pair raises NotComparable in both."""
    for seed in range(12):
        start, target = _random_pair(n, seed)
        assert start != target
        for pair in ((start, target), (target, start)):
            _check_against_reference(*pair)
        assert _walk_outcome(sym_move_refinement, target, start) is NotComparable


def _pair_argv(tmp_path, verb, start, target):
    """The arguments of a verb on the pair (start, target), each module
    written to a JSON file under tmp_path."""
    argv = [verb, "--type", cli._type_name(start.sym)]
    for flag, erep in (("--m", start), ("--n", target)):
        path = tmp_path / ("%s.json" % flag[2:])
        path.write_text(json.dumps(core.rep_to_json(erep.rep)))
        argv += [flag, str(path)]
    return argv


SYM_MOVES_STDOUT_DIGEST = "92bdd12a5bb88f71a0e43dc9174f2ea8a2bb4abfc361144a4b4683dcaea2119e"


def test_sym_moves_stdout_matches_reference(tmp_path, capsys, monkeypatch):
    """sympdeg sym-moves answers seeded pairs of both split types as it
    does with the reference walk in place of sym_move_refinement: exit
    0, nothing on stderr, and found moves that replay to the target.
    Its own output is pinned byte for byte."""
    digest = hashlib.sha256()
    for n, seed in ((6, 0), (7, 1), (9, 2), (12, 3)):
        start, target = _random_pair(n, seed)
        argv = _pair_argv(tmp_path, "sym-moves", start, target)
        for walk in (_reference_refinement, sym_move_refinement):
            monkeypatch.setattr(symdegen, "sym_move_refinement", walk)
            assert cli.run(argv) == 0
            out, err = capsys.readouterr()
            data = json.loads(out)
            assert err == "" and data["status"] == "found" and data["moves"]
            moves = [SymMove(**move) for move in data["moves"]]
            assert _replay(start, moves) == target, (n, seed, walk)
        digest.update(out.encode())
    assert digest.hexdigest() == SYM_MOVES_STDOUT_DIGEST


def test_sym_moves_cli_at_scale(tmp_path, capsys):
    """sympdeg sym-moves answers a seeded even-pos pair at n = 100 with
    exit 0 and a chain that replays to the target."""
    start, target = _random_pair(100, 0)
    argv = _pair_argv(tmp_path, "sym-moves", start, target)
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert err == "" and data["status"] == "found"
    assert _replay(start, [SymMove(**move) for move in data["moves"]]) == target


SYM_PATH_STDOUT_DIGEST = "3addbbb7b726413c236a7e4d979be656ab361d07290587ab16bdf7b993fefb93"


def test_sym_path_stdout_pinned(tmp_path, capsys):
    """sympdeg sym-path prints, byte for byte, the pinned JSON and --table
    output on seeded pairs of both split types (odd-neg n = 9, 15, 21
    and even-pos n = 16, three pairs each)."""
    digest = hashlib.sha256()
    for n in (9, 15, 16, 21):
        for seed in range(3):
            start, target = _random_pair(n, seed)
            argv = _pair_argv(tmp_path, "sym-path", start, target)
            for extra in ([], ["--table"]):
                assert cli.run(argv + extra) == 0
                out, err = capsys.readouterr()
                assert err == "", (n, seed, extra)
                digest.update(out.encode())
    assert digest.hexdigest() == SYM_PATH_STDOUT_DIGEST


def test_refinement_ranks_once_per_module(monkeypatch):
    """The refinement carries rank tables: one ranks_of for the start and
    one for the target (the peel's opening), one per peel step for the
    remaining source (symdegen._perp_step), then one per audited
    constituent.  The corner moves are read off each step's source
    table (degen._staircase) with no audit of their own, and each gives
    one paired move of two constituents, so a chain of k moves over p
    peel steps makes 2 + 2k + p calls.  The staircase is walked once per
    peel step: the refinement reads the corner moves the step applied."""
    calls = [0, 0]
    real_staircase = symdegen._staircase

    def counting(rep):
        calls[0] += 1
        return ranks_of(rep)

    def counting_staircase(*args):
        calls[1] += 1
        return real_staircase(*args)

    monkeypatch.setattr(symdegen, "ranks_of", counting)
    monkeypatch.setattr(degen, "ranks_of", counting)
    monkeypatch.setattr(symdegen, "_staircase", counting_staircase)
    start, target = _random_pair(33, 0)
    peels = len(sym_degeneration_path(start, target)) - 1
    calls[:] = [0, 0]
    reset_sym_audit()
    moves = sym_move_refinement(start, target)
    assert len(moves) == SYM_AUDIT["verified"] == 91 and peels == 37
    assert calls == [2 + 2 * len(moves) + peels, peels] == [221, 37]


def test_sym_path_validates_once_per_peel(monkeypatch):
    """Each Z is built from carried counts, so a seeded n = 20 path calls
    no rep_of and runs one step (symdegen._perp_step) per peel step,
    whose paired corner moves find their segments in the source's
    multiplicities or raise.  No full validate() pass runs: validate()
    and rep_of go through RankSequence._validated_mult, which the path
    never calls."""
    calls = {"rep_of": 0, "validate": 0, "step": 0}
    real_rep_of, real_check, real_step = rep_of, RankSequence._validated_mult, symdegen._perp_step

    def counting_rep_of(ranks):
        calls["rep_of"] += 1
        return real_rep_of(ranks)

    def counting_check(self):
        calls["validate"] += 1
        return real_check(self)

    def counting_step(*args):
        calls["step"] += 1
        return real_step(*args)

    for module in (core, symdegen):
        monkeypatch.setattr(module, "rep_of", counting_rep_of, raising=False)
    monkeypatch.setattr(RankSequence, "_validated_mult", counting_check)
    monkeypatch.setattr(symdegen, "_perp_step", counting_step)
    start, target = _random_pair(20, 0)
    steps = sym_degeneration_path(start, target)
    assert len(steps) > 5 and steps[-1].Z == target
    assert calls == {"rep_of": 0, "validate": 0, "step": len(steps) - 1}


def test_sym_refinement_reads_no_table_back(monkeypatch):
    """Each step's remaining source is Z less the blocks peeled before it,
    so refining seeded pairs (n = 20 and 33) reads no rank table back
    into a module: no RankSequence._validated_mult call, which rep_of
    and validate() both make.  The chain still ends on the target."""
    calls = [0]
    real_check = RankSequence._validated_mult

    def counting_check(self):
        calls[0] += 1
        return real_check(self)

    monkeypatch.setattr(RankSequence, "_validated_mult", counting_check)
    for n, seed in ((20, 0), (33, 0), (33, 1)):
        start, target = _random_pair(n, seed)
        moves = sym_move_refinement(start, target)
        assert moves and _replay(start, moves) == target
    assert calls == [0]


def test_sym_path_tables_by_blocks(monkeypatch):
    """A seeded odd-neg n = 31 path computes ranks for M and N and once
    per peel step, for the remaining source from its multiplicities, and
    never subtracts whole tables: each step updates the target by the
    blocks of L and its reflection."""
    calls = {"ranks_of": 0, "sub": 0}
    real_sub = RankSequence.sub

    def counting_ranks_of(rep):
        calls["ranks_of"] += 1
        return ranks_of(rep)

    def counting_sub(self, other):
        calls["sub"] += 1
        return real_sub(self, other)

    for module in (core, symdegen, degen):
        monkeypatch.setattr(module, "ranks_of", counting_ranks_of)
    monkeypatch.setattr(RankSequence, "sub", counting_sub)
    start, target = _random_pair(31, 0)
    calls["ranks_of"] = 0
    steps = sym_degeneration_path(start, target)
    assert len(steps) == 31 and steps[-1].Z == target
    assert calls == {"ranks_of": 2 + 30, "sub": 0}


@pytest.mark.parametrize("n, seed", [(47, 0), (63, 1), (64, 2)])
def test_sym_path_scale(n, seed):
    """Seeded paths at the sizes of the rank work (odd-neg n = 47, 63,
    even-pos n = 64), checked against ranks recomputed from each stage:
    M to N through epsilon stages with one dimension vector, each
    dominated by the stage before it."""
    start, target = _random_pair(n, seed)
    steps = sym_degeneration_path(start, target)
    assert steps[0].Z == start and steps[-1].Z == target
    assert steps[-1].L is None and all(step.L for step in steps[:-1])
    before = ranks_of(start.rep)
    for step in steps:
        assert is_epsilon_rep(step.Z.rep, start.sym)
        here = ranks_of(step.Z.rep)
        assert here.diagonal() == before.diagonal()
        assert before.dominates(here)
        before = here


def test_sym_path_steps_on_support_block():
    """Seeded paths at n = 15, 22, ..., 64 (odd-neg for odd n, even-pos
    for even n): each step's remaining source and target are 0 outside
    its support block."""
    for n in range(15, 65, 7):
        start, target = _random_pair(n, n)
        steps = sym_degeneration_path(start, target)
        assert steps[0].Z == start and steps[-1].Z == target
        for step in steps:
            a, top = step.support_interval or (1, 0)
            for table in (step.m_ranks, step.n_ranks):
                assert all(a <= i <= j <= top for i, j, v in table.entries() if v)


def _perp_formula(R, q, a, top):
    """The perpendicular quotient's ranks entry by entry, unchecked: on
    the block [a, top], r(k, l) drops by [l >= q and r(q, l) <= r(k, l)]
    plus [k <= sigma(q) and r(k, sigma(q)) <= r(k, l)]."""
    n = R.n
    sq = sigma(q, n)
    rows = R.rows()
    row_q = rows[q - 1]
    for k in range(a, top + 1):
        row = rows[k - 1]
        # r_{k,sigma(q)} is infinite (no drop) below the diagonal
        r_k_sq = row[sq - k] if k <= sq else None
        rows[k - 1] = [
            value - (1 if l >= q and row_q[l - q] <= value else 0)
            - (1 if r_k_sq is not None and r_k_sq <= value else 0)
            for l, value in enumerate(row[:top - k + 1], k)] + row[top - k + 1:]
    return RankSequence(n, rows)


def _perp_reference(R, q, a, top):
    """_perp_formula's table, validated in full, and its module."""
    out = _perp_formula(R, q, a, top)
    out.validate()
    return out, rep_of(out)


def _check_perp_step(R, q, a, top):
    """The peel step on R (the paired corner moves of the ordinary
    staircase, less U[q, top] and its reflection), from R's
    multiplicities, against the reference: the same rows and
    multiplicities.  Returns the step's table."""
    mult = dict(rep_of(R).mult)
    got = symdegen._perp_step(R, mult, q, a, top)[0]
    want, module = _perp_reference(R, q, a, top)
    assert got == want, (R, q)
    assert mult == module.mult, (R, q)
    return got


def test_perp_step_matches_reference_exhaustive():
    """Every split-type epsilon module with n = 2..6 and dims entries <= 2,
    for every q of its support block where U[q, top] embeds: the step's
    rows and multiplicities are the reference's, and the public
    perp_quotient_ranks returns the same table."""
    checked = 0
    for n in range(2, 7):
        sym = SymmetricType(n, 1 if n % 2 == 0 else -1)
        for half in itertools.product(range(3), repeat=(n + 1) // 2):
            dims = half + half[:n // 2][::-1]
            for rep in symdegen.epsilon_modules_with_dims(dims, sym):
                R = ranks_of(rep)
                span = symdegen._support(R.diagonal())
                if span is None:
                    continue
                a, top = span
                for q in range(a, top + 1):
                    if R.r(q, top) - R.r(q, top + 1) <= 0:
                        continue
                    got = _check_perp_step(R, q, a, top)
                    assert perp_quotient_ranks(EpsilonRep(rep, sym), q) == got
                    checked += 1
    assert checked == 329


def test_perp_step_matches_reference_on_paths():
    """Seeded paths at n = 15, 18, ..., 63 (odd-neg for odd n, even-pos for
    even n): at every peel, the step on the remaining source is the
    reference quotient, and it is the next step's remaining source."""
    peels = 0
    for n in range(15, 65, 3):
        start, target = _random_pair(n, n)
        steps = sym_degeneration_path(start, target)
        for here, after in zip(steps, steps[1:]):
            a, top = here.support_interval
            got = _check_perp_step(here.m_ranks, here.L[0], a, top)
            assert got == after.m_ranks
            peels += 1
    assert peels == 715


def _first_negative_mult(table):
    """The first (i, j), row by row, where m_{i,j} < 0, or None."""
    for i in range(1, table.n + 1):
        for j in range(i, table.n + 1):
            if (table.r(i, j) - table.r(i, j + 1) - table.r(i - 1, j)
                    + table.r(i - 1, j + 1)) < 0:
                return (i, j)
    return None


def test_perp_step_corner_check():
    """U[2, 4] on n = 5, a valid table that is 0 outside its block [2, 4],
    found by a brute-force search over the modules with n <= 5 and dims
    entries <= 2.  It is no epsilon module of the split type (a self-dual
    segment of odd multiplicity), so no path reaches it.  The quotient by
    U[3, 4] has one corner move, cut(2, 4, 3), and its reflection
    cut(2, 4, 4) takes the one copy of U[2, 4] first, so the step raises
    InsufficientMultiplicity.  The formula has no quotient there either:
    its first negative multiplicity is m_{2,4}, and its first bad entry,
    r[2,3] = -1, is what that negative multiplicity forces."""
    R = ranks_of(Representation(5, {(2, 4): 1}))
    with pytest.raises(InsufficientMultiplicity, match=r"consumes U\[2,4\] but none is left$"):
        symdegen._perp_step(R, {(2, 4): 1}, 3, 2, 4)
    reference = _perp_formula(R, 3, 2, 4)
    assert _first_negative_mult(reference) == (2, 4)
    with pytest.raises(InvalidRankSequence, match=r"entry r\[2,3\] is not"):
        reference.validate()


def test_sym_path_matches_perp_quotient_ranks():
    """Seeded pairs at n = 15..31 (odd-neg for odd n, even-pos for even
    n): each step's remaining source is the public perp_quotient_ranks
    of the step before it, along that step's peeled segment."""
    for n in range(15, 32):
        start, target = _random_pair(n, n)
        steps = sym_degeneration_path(start, target)
        assert len(steps) > 2
        for here, after in zip(steps, steps[1:]):
            source = EpsilonRep(rep_of(here.m_ranks), start.sym)
            assert after.m_ranks == perp_quotient_ranks(source, here.L[0])


def test_sym_audit():
    reset_sym_audit()
    erep = EpsilonRep(Representation(3, {(1, 3): 2}), SymmetricType(3, -1))
    apply_sym_move(erep, SymMove.symcut(1, 3, 1))
    assert SYM_AUDIT["applied"] == 1
    assert SYM_AUDIT["violations"] == 0
    reset_sym_audit()


def test_sym_audit_counts_violation(monkeypatch):
    """Constituents that are not a reflection pair leave a module of the
    wrong type: _apply_sym_audited raises NotEpsilon and counts a
    violation, not a verified move."""
    reset_sym_audit()
    erep = EpsilonRep(Representation(3, {(1, 3): 2}), SymmetricType(3, -1))
    # the same cut twice leaves U[1,1]^2 + U[2,3]^2, without U[3,3] or U[1,2]
    monkeypatch.setattr(SymMove, "expand",
                        lambda self, sym: (Move.cut(1, 3, 2), Move.cut(1, 3, 2)))
    with pytest.raises(NotEpsilon):
        apply_sym_move(erep, SymMove.symcut(1, 3, 1))
    assert SYM_AUDIT == {"applied": 1, "verified": 0, "violations": 1}
    reset_sym_audit()


def test_stalled_sym_peel_raises_not_comparable(monkeypatch):
    """A quotient that stops dominating the rest of the target is not
    committed: the peel's guard raises NotComparable."""
    real = symdegen._perp_step

    def short(R, mult, q, a, top):
        # the quotient one lower at r(a, a), where dimensions must agree
        table, moves = real(R, mult, q, a, top)
        return table._less_segment(a, a), moves

    monkeypatch.setattr(symdegen, "_perp_step", short)
    with pytest.raises(NotComparable, match="no final segment of the target"):
        sym_degeneration_path(*_ex1_pair())


def test_peel_label():
    assert peel_label((3, 5), 5) == "P_3"
    assert peel_label((4, 4), 5) == "S_4"
    assert peel_label((2, 4), 5) == "U[2,4]"


def test_choose_peel_errors_propagate(monkeypatch):
    """The one peel of a step is committed or fails: an error from the
    step of the perpendicular quotient, a rank-table error included,
    propagates instead of moving on to another segment."""
    em, en = _ex1_pair()
    for error in (ZeroDivisionError("not a rank-table problem"),
                  InvalidRankSequence("bad perpendicular quotient")):
        def broken(*args, error=error):
            raise error

        monkeypatch.setattr(symdegen, "_perp_step", broken)
        with pytest.raises(type(error)):
            sym_degeneration_path(em, en)


def test_split_types_exhaustive():
    """Every epsilon module of the split types with n = 2..7 and entries
    <= 2: each paired move from sym_moves applies, every rank-dominated
    pair M > N has a paired-move chain that replays from M to N, and its
    path replays from M to N through epsilon stages with one dimension
    vector, each dominated by the stage before it.  The chain passes
    through every stage: over the 3,600 peel steps, replaying the paired
    moves of a step (_replay_by_stage) lands on the next step's Z."""
    modules = moves = pairs = stages = 0
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
                    steps = sym_degeneration_path(m, target)
                    stages += _replay_by_stage(steps, sym_move_refinement(m, target))
                    before = ranks[m]
                    for step in steps[1:]:
                        assert is_epsilon_rep(step.Z.rep, sym)
                        here = ranks_of(step.Z.rep)
                        assert here.diagonal() == before.diagonal()
                        assert before.dominates(here)
                        before = here
                    pairs += 1
    # 437 modules besides the six zero modules
    assert (modules, moves, pairs) == (443, 1233, 1300) and stages == 3600


def test_epsilon_modules_listed_directly():
    """For all four types, every symmetric dimension vector with n <= 6 and
    entries <= 2 (and a few that are not symmetric): the epsilon modules
    listed directly are the filtered modules_with_dims, each once."""
    checked = 0
    for n in range(1, 7):
        for eps in (-1, 1):
            sym = SymmetricType(n, eps)
            dims_list = [half + half[:n // 2][::-1]
                         for half in itertools.product(range(3), repeat=(n + 1) // 2)]
            dims_list += [(1,) + (2,) * (n - 1)] if n > 1 else []
            for dims in dims_list:
                want = [rep for rep in modules_with_dims(dims) if is_epsilon_rep(rep, sym)]
                got = symdegen.epsilon_modules_with_dims(dims, sym)
                assert len(set(got)) == len(got)
                assert sorted(got, key=Representation.key) == \
                    sorted(want, key=Representation.key), (sym, dims)
                checked += bool(want)
    assert checked > 100


def test_epsilon_modules_order_pinned():
    """The epsilon modules of every dims with n <= 6 and entries <= 2, in
    both types of each n, in the order listed before the search kept its
    own stack."""
    records = [[sorted(rep.mult.items())
                for rep in symdegen.epsilon_modules_with_dims(dims, SymmetricType(n, eps))]
               for n in range(1, 7) for eps in (-1, 1)
               for dims in itertools.product(range(3), repeat=n)]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "145447a9351a11f9c5151af6b735b85fb73889fd202a0e9e3e0367789c5ea699"


def test_epsilon_modules_deep_search():
    """100 and 101 zero dims, one search level per reflection pair, far past
    the recursion limit: each type gives the zero module alone."""
    for n in (100, 101):
        for eps in (-1, 1):
            got = symdegen.epsilon_modules_with_dims((0,) * n, SymmetricType(n, eps))
            assert got == [Representation(n, {})], (n, eps)


@pytest.mark.parametrize("dims", [(1, True, 1), (1, 2.0, 1), (1, -2, 1), (-1, 0, -1)])
def test_epsilon_modules_reject_bad_dims(dims):
    """A dims entry that is a bool, not an int, or negative is a
    ValueError, not an empty or coerced list."""
    with pytest.raises(ValueError, match="dims must be one or more"):
        symdegen.epsilon_modules_with_dims(dims, SymmetricType(3, -1))


def test_mismatched_type_sizes_raise():
    """The epsilon tests refuse a module, table or dimension vector whose
    chain is not the type's, with MismatchedQuiver and its own message."""
    sym = SymmetricType(3, -1)
    rep = Representation(2, {(1, 2): 1})
    with pytest.raises(MismatchedQuiver, match="^rank sequence and type have different sizes$"):
        is_epsilon_rank(ranks_of(rep), sym)
    with pytest.raises(MismatchedQuiver, match="^module and type have different sizes$"):
        is_epsilon_rep(rep, sym)
    with pytest.raises(MismatchedQuiver,
                       match="^dimension vector and type have different sizes$"):
        symdegen.epsilon_modules_with_dims((1, 1), sym)


def test_symmetric_value_classes_are_immutable():
    sym = SymmetricType(3, -1)
    erep = EpsilonRep(Representation(3, {(1, 3): 2}), sym)
    with pytest.raises(AttributeError, match="^SymmetricType is immutable$"):
        sym.epsilon = 1
    with pytest.raises(AttributeError, match="^EpsilonRep is immutable$"):
        erep.sym = SymmetricType(3, 1)
