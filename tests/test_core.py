import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sympdeg.core import (
    Representation, RankSequence,
    dim_vector, dual, euler_form, ext_dim, hom_dim, modules_with_dims,
    ranks_of, rep_of, sigma,
    rep_to_json, rep_from_json, ranks_to_json, ranks_from_json,
)
from sympdeg import oracle
from sympdeg.errors import InvalidRankSequence, MismatchedQuiver


@st.composite
def reps(draw, max_n=6, max_picks=6):
    n = draw(st.integers(1, max_n))
    segments = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    picks = draw(st.lists(st.sampled_from(segments), max_size=max_picks))
    mult = {}
    for seg in picks:
        mult[seg] = mult.get(seg, 0) + 1
    return Representation(n, mult)


def test_sigma():
    assert [sigma(v, 5) for v in range(1, 6)] == [5, 4, 3, 2, 1]
    assert sigma(2, 4) == 3


def test_segment_ranks():
    r = ranks_of(Representation(3, {(1, 2): 1}))
    assert r.rows() == [[1, 1, 0], [1, 0], [0]]
    assert r.r(1, 2) == 1 and r.r(2, 3) == 0


def test_accessor_conventions():
    r = ranks_of(Representation(3, {(1, 3): 2}))
    assert r.r(0, 2) == 0
    assert r.r(1, 4) == 0
    with pytest.raises(IndexError):
        r.r(2, 1)
    with pytest.raises(IndexError):
        r.r(4, 0)
    with pytest.raises(IndexError):
        r.r(5, 1)
    with pytest.raises(IndexError):
        r.r(1, 5)
    with pytest.raises(IndexError):
        r.r(-1, 2)


@pytest.mark.parametrize("i, j", [(1.0, 2), (True, 2), (1, 2.0), (0, True),
                                  (False, 1), ("1", 2)])
def test_accessor_rejects_non_int_indices(i, j):
    """An index that is a bool or not an int is an IndexError, like any
    other pair outside 0 <= i <= j <= n+1, not a TypeError or the entry
    of the int it equals."""
    r = ranks_of(Representation(3, {(1, 3): 1, (2, 2): 1}))
    with pytest.raises(IndexError, match="rank index"):
        r.r(i, j)


def test_displayed_example():
    """The running example: one long segment each way plus a doubled
    simple in the middle."""
    m = Representation(5, {(1, 4): 1, (2, 5): 1, (3, 3): 2})
    r = ranks_of(m)
    assert r.rows() == [[1, 1, 1, 1, 0], [2, 2, 2, 1], [4, 2, 1], [2, 1], [1]]
    assert dim_vector(m) == (1, 2, 4, 2, 1)
    assert rep_of(r) == m
    assert dual(m) == m
    assert hom_dim(m, Representation(5, {(2, 3): 1})) == 3


def test_validate_rejects_bad_rows():
    with pytest.raises(InvalidRankSequence):
        RankSequence(3, [[1, 2, 0], [1, 0], [0]]).validate()
    with pytest.raises(ValueError):
        RankSequence(3, [[1, 1], [1, 0], [0]])
    with pytest.raises(ValueError):
        RankSequence(True, [[1]])
    bad = RankSequence(2, [[0, 1], [1]])
    with pytest.raises(InvalidRankSequence) as info:
        bad.validate()
    assert info.value.indices


@pytest.mark.parametrize("n, mult", [
    (True, {}), (2.5, {}), (3.0, {(1, 2): 1}), (3, {(1, 2): True}),
    (3, {(1, 2): 1.0}), (3, {(True, 2): 1}), (3, {(1, 2.0): 1}),
])
def test_representation_rejects_bools_and_non_integers(n, mult):
    """isinstance(True, int) holds, so a bool size or multiplicity used to
    be kept as given."""
    with pytest.raises(ValueError):
        Representation(n, mult)


@pytest.mark.parametrize("n, rows", [
    (2, [[True, True], [True]]), (2, [[1, 1], [True]]), (2, [[1.0, 1], [1]]),
])
def test_rank_sequence_validate_rejects_bools_and_non_integers(n, rows):
    with pytest.raises(InvalidRankSequence) as info:
        RankSequence(n, rows).validate()
    assert str(info.value).startswith("entry r[")


def test_ext_role_convention():
    """Extension direction pinned by the matrix oracle: the earlier
    segment extends the later one, not the other way round."""
    u23 = Representation(3, {(2, 3): 1})
    u12 = Representation(3, {(1, 2): 1})
    assert ext_dim(u23, u12) == 0
    assert ext_dim(u12, u23) == 1
    assert hom_dim(u23, u12) == 1
    assert hom_dim(u12, u23) == 0


def test_hom_segment_table():
    # [U_{i,j}, U_{k,l}] = 1 iff k <= i <= l <= j
    n = 4
    u = lambda i, j: Representation(n, {(i, j): 1})
    assert hom_dim(u(2, 4), u(1, 3)) == 1
    assert hom_dim(u(1, 3), u(2, 4)) == 0
    assert hom_dim(u(2, 3), u(2, 3)) == 1
    assert hom_dim(u(1, 4), u(2, 2)) == 0


@given(reps())
def test_roundtrip(rep):
    assert rep_of(ranks_of(rep)) == rep


@given(reps())
def test_dual_involution(rep):
    assert dual(dual(rep)) == rep
    r = ranks_of(rep)
    rd = ranks_of(dual(rep))
    n = rep.n
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert rd.r(i, j) == r.r(sigma(j, n), sigma(i, n))


@given(reps(max_n=5), reps(max_n=5))
@settings(max_examples=60)
def test_euler_identity(a, b):
    if a.n != b.n:
        return
    lhs = hom_dim(a, b) - ext_dim(a, b)
    assert lhs == euler_form(dim_vector(a), dim_vector(b))


@given(reps())
def test_json_roundtrip(rep):
    assert rep_from_json(rep_to_json(rep)) == rep
    r = ranks_of(rep)
    assert ranks_from_json(ranks_to_json(r)) == r


def test_rep_of_total_additivity():
    a = Representation(4, {(1, 2): 1, (2, 4): 2})
    b = Representation(4, {(1, 4): 1, (3, 3): 1})
    assert ranks_of(a).add(ranks_of(b)) == ranks_of(
        Representation(4, {(1, 2): 1, (2, 4): 2, (1, 4): 1, (3, 3): 1}))


def test_dominates():
    big = ranks_of(Representation(3, {(1, 3): 1}))
    small = ranks_of(Representation(3, {(1, 1): 1, (2, 2): 1, (3, 3): 1}))
    assert big.dominates(small)
    assert not small.dominates(big)
    assert big.dominates(big)


# --- the rank kernels against literal reference implementations -------------

def _ranks_reference(rep):
    """The definition: r_{i,j} counts segments [k,l] with k <= i, j <= l."""
    n = rep.n
    return [[sum(m for (k, l), m in rep.mult.items() if k <= i and j <= l)
             for j in range(i, n + 1)]
            for i in range(1, n + 1)]


def _validate_reference(n, rows):
    """Entry-by-entry validate through the boundary conventions; returns
    None or (error class, message, indices) of the first failure.  An
    entry must be an int proper: a bool is not a rank."""
    def r(i, j):
        if i == 0 or j == n + 1:
            return 0
        return rows[i - 1][j - i]

    try:
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if type(r(i, j)) is not int or r(i, j) < 0:
                    raise InvalidRankSequence(
                        "entry r[%d,%d] is not a non-negative integer" % (i, j),
                        indices=(i, j))
                if r(i, j) < r(i, j + 1):
                    raise InvalidRankSequence(
                        "r[%d,%d] < r[%d,%d]" % (i, j, i, j + 1), indices=(i, j))
                if r(i - 1, j) > r(i, j):
                    raise InvalidRankSequence(
                        "r[%d,%d] > r[%d,%d]" % (i - 1, j, i, j), indices=(i, j))
                if r(i - 1, j) - r(i - 1, j + 1) > r(i, j) - r(i, j + 1):
                    raise InvalidRankSequence(
                        "corner surplus fails at (%d,%d): "
                        "r[%d,%d]-r[%d,%d] > r[%d,%d]-r[%d,%d]"
                        % (i, j, i - 1, j, i - 1, j + 1, i, j, i, j + 1),
                        indices=(i, j))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)
    return None


def _failure_kind(outcome):
    if outcome is None:
        return None
    cls, message, _ = outcome
    if cls is not InvalidRankSequence:
        return cls.__name__
    words = message.split()
    return words[0] if words[0] in ("entry", "corner") else words[1]


def _validate_outcome(n, rows):
    try:
        RankSequence(n, rows).validate()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)
    return None


def _seeded_modules():
    """The empty module on every n, and random modules with repeated
    segments for n = 1..64."""
    rng = random.Random(2405)
    for n in range(1, 65):
        yield Representation(n)
        for _ in range(3):
            mult = {}
            for _ in range(rng.randint(1, 2 * n)):
                i = rng.randint(1, n)
                j = rng.randint(i, n)
                mult[(i, j)] = mult.get((i, j), 0) + rng.randint(1, 3)
            yield Representation(n, mult)


def test_ranks_of_matches_definition():
    for rep in _seeded_modules():
        assert ranks_of(rep).rows() == _ranks_reference(rep)


def _sparse_modules():
    """Modules where most rows start no segment: a lone [n, n] on every n,
    and 1 to 3 random segments for n = 1..64, all ending at or before a
    random last vertex, so many modules end before vertex n."""
    rng = random.Random(3101)
    for n in range(1, 65):
        yield Representation(n, {(n, n): 1})
        for _ in range(3):
            last = rng.randint(1, n)
            mult = {}
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(1, last)
                j = rng.randint(i, last)
                mult[(i, j)] = mult.get((i, j), 0) + rng.randint(1, 3)
            yield Representation(n, mult)


def test_ranks_of_matches_definition_on_sparse_modules():
    ends_early = 0
    for rep in _sparse_modules():
        assert ranks_of(rep).rows() == _ranks_reference(rep)
        ends_early += max(j for _, j in rep.mult) < rep.n
    assert ends_early > 100


def _dominates_reference(a, b):
    """The definition: r_a[i,j] >= r_b[i,j] at every 1 <= i <= j <= n."""
    return all(a.r(i, j) >= b.r(i, j)
               for i in range(1, a.n + 1) for j in range(i, a.n + 1))


def _bumped(rows, i, j, by=1):
    """rows with the entry r[i,j] changed by by."""
    rows = [list(row) for row in rows]
    rows[i - 1][j - i] += by
    return rows


def _seeded_rank_pairs():
    """Pairs of tables on n = 1..64: one lowered entrywise by 0 or 1 from
    the other, the same with one entry raised past the other's, and
    pairs that differ only at r[1,1] or only in the last row."""
    rng = random.Random(4129)
    for n in range(1, 65):
        for _ in range(3):
            rows = [[rng.randint(0, 3) for _ in range(n - i)] for i in range(n)]
            low = [[v - rng.choice((0, 0, 0, 1)) for v in row] for row in rows]
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            high = _bumped(low, i, j, rows[i - 1][j - i] - low[i - 1][j - i] + 1)
            for other in (low, high, _bumped(rows, 1, 1), _bumped(rows, n, n)):
                yield RankSequence(n, rows), RankSequence(n, other)


def test_dominates_matches_entrywise_reference():
    """Both ways round on every seeded pair; tables on different chains
    do not compare."""
    seen = set()
    for a, b in _seeded_rank_pairs():
        for x, y in ((a, b), (b, a)):
            want = _dominates_reference(x, y)
            assert x.dominates(y) == want
            seen.add(want)
    assert seen == {True, False}
    a = ranks_of(Representation(3, {(1, 3): 1}))
    b = ranks_of(Representation(4, {(1, 3): 1}))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(MismatchedQuiver, match="cannot compare ranks on"):
            x.dominates(y)


def test_ranks_of_matches_matrix_oracle():
    for rep in _seeded_modules():
        if rep.n > 5 or sum(rep.mult.values()) > 12:
            continue
        real = oracle.realize_matrices(rep)
        assert ranks_of(rep) == oracle.rank_seq_bruteforce(real)


def test_rep_of_inverts_ranks_of_on_seeded_modules():
    for rep in _seeded_modules():
        assert rep_of(ranks_of(rep)) == rep


def test_validate_matches_reference_on_perturbed_matrices():
    rng = random.Random(2739)
    kinds = set()
    for rep in _seeded_modules():
        if rep.n > 24:
            continue
        n = rep.n
        rows = ranks_of(rep).rows()
        assert _validate_outcome(n, rows) is None
        for _ in range(8):
            trial = [list(row) for row in rows]
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(n)
                j = rng.randrange(n - i)
                kind = rng.randrange(6)
                if kind < 2 and isinstance(trial[i][j], int):
                    trial[i][j] += rng.choice([-2, -1, 1, 2]) * (kind + 1)
                else:
                    trial[i][j] = rng.choice([-1, 0, rows[i][j] + 0.5, None, True])
            want = _validate_reference(n, trial)
            assert _validate_outcome(n, trial) == want
            kinds.add(_failure_kind(want))
    # passes and every failure validate can report came up
    assert kinds == {None, "TypeError", "entry", "<", ">", "corner"}


def test_modules_with_dims_counts():
    # n ones: one module per way of cutting the chain, 2^(n-1)
    for n in range(1, 9):
        assert len(modules_with_dims((1,) * n)) == 2 ** (n - 1)
    # (a, b): c copies of U[1,2] for c = 0..min(a, b)
    for a in range(5):
        for b in range(5):
            assert len(modules_with_dims((a, b))) == min(a, b) + 1


def test_modules_with_dims_distinct_and_exact():
    for dims in ((2, 1, 2), (1, 2, 2, 1), (3, 0, 2), (0, 0), (2, 3, 1, 2)):
        modules = modules_with_dims(dims)
        assert modules
        assert len(set(modules)) == len(modules)
        assert all(dim_vector(rep) == dims for rep in modules)


def test_modules_with_dims_order_pinned():
    """The modules of every dims with n <= 4 and entries <= 2, in the
    order listed before the search kept its own stack."""
    records = [[sorted(rep.mult.items()) for rep in modules_with_dims(dims)]
               for n in range(1, 5) for dims in itertools.product(range(3), repeat=n)]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "d6b50457677965e26c1090b803d2c745137e32e93d1852f292fd2f19e7fb5362"


def test_modules_with_dims_brute_force():
    """Every dims with n <= 3 and entries <= 3, and n = 4 with entries <= 1:
    the modules are the per-segment counts, read by itertools.product in
    segment order [1, 1], [1, 2], ..., [n, n] and kept where dim_vector
    gives dims, in that order."""
    dims_list = [dims for n in range(1, 4) for dims in itertools.product(range(4), repeat=n)]
    dims_list += list(itertools.product(range(2), repeat=4))
    for dims in dims_list:
        n = len(dims)
        segments = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        caps = [range(min(dims[i - 1:j]) + 1) for i, j in segments]
        want = [rep for rep in (Representation(n, dict(zip(segments, counts)))
                                for counts in itertools.product(*caps))
                if dim_vector(rep) == dims]
        assert modules_with_dims(dims) == want, dims


@pytest.mark.parametrize("dims", [(True, 1), (1, 1.0), (2, -1), (-1,), ()])
def test_modules_with_dims_rejects_bad_dims(dims):
    """A dims entry that is a bool, not an int, or negative is a
    ValueError, and so are empty dims; (True, 1) used to read as (1, 1)."""
    with pytest.raises(ValueError, match="dims must be one or more"):
        modules_with_dims(dims)


def test_modules_with_dims_deep_search():
    """100 zero dims mean 5,050 segments, one search level each, far past
    the recursion limit: the answer is the zero module alone."""
    assert modules_with_dims((0,) * 100) == [Representation(100, {})]


@st.composite
def blocked_tables(draw):
    """The ranks of a module supported in a block [a, b], so 0 outside
    rows a..b and columns up to b, with up to four block entries moved
    by -2..2 or replaced by a value that is not a non-negative int."""
    n = draw(st.integers(1, 9))
    a = draw(st.integers(1, n))
    b = draw(st.integers(a, n))
    block = [(i, j) for i in range(a, b + 1) for j in range(i, b + 1)]
    mult = {}
    for seg in draw(st.lists(st.sampled_from(block), max_size=8)):
        mult[seg] = mult.get(seg, 0) + 1
    rows = ranks_of(Representation(n, mult)).rows()
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.sampled_from(block))
        rows[i - 1][j - i] = draw(st.one_of(
            st.integers(-2, 2).map(lambda d: rows[i - 1][j - i] + d),
            st.sampled_from([True, 0.5, -1])))
    return RankSequence(n, rows)


def _verdict(check):
    try:
        check()
    except InvalidRankSequence as exc:
        return exc.indices, str(exc)
    return None


def _check_reader(table):
    """The reader and rep_of give validate()'s verdict; on a valid table
    the reader's multiplicities are rep_of's and rebuild the table."""
    verdict = _verdict(table.validate)
    assert _verdict(table._validated_mult) == verdict
    assert _verdict(lambda: rep_of(table)) == verdict
    if verdict is None:
        mult = table._validated_mult()
        assert ranks_of(Representation(table.n, mult)) == table
        assert mult == rep_of(table).mult
    return verdict


@given(blocked_tables())
@settings(max_examples=400)
def test_validated_mult_matches_validate(table):
    """On a table that is 0 outside a block, with some block entries
    changed, the reader (RankSequence._validated_mult) and rep_of raise
    exactly when validate() does, with the same indices and message;
    otherwise the reader returns the multiplicities of rep_of, whose
    ranks are the table again."""
    _check_reader(table)


def test_validated_mult_seeded_verdicts():
    """Seeded blocked tables with one block entry moved by one reach a
    valid table and each of the three inequalities, with the same
    verdict from the reader and rep_of as from validate(), and the
    multiplicities of rep_of from the reader on a valid table."""
    rng = random.Random(5)
    kinds = set()
    for _ in range(600):
        n = rng.randint(2, 9)
        a = rng.randint(1, n - 1)
        b = rng.randint(a + 1, n)
        rows = ranks_of(Representation(n, {(a, b): rng.randint(1, 3),
                                           (rng.randint(a, b), b): 1})).rows()
        i = rng.randint(a, b)
        j = rng.randint(i, b)
        rows[i - 1][j - i] += rng.choice((-1, 1))
        got = _check_reader(RankSequence(n, rows))
        kinds.add(got and next(k for k in ("corner", "<", ">") if k in got[1]))
    assert kinds == {None, "<", ">", "corner"}


def test_less_segment_subtracts_one_segment():
    """_less_segment(q, s) is sub(ranks_of(U[q, s])) and reuses every row
    outside q..s."""
    for rep in _seeded_modules():
        if rep.n > 12:
            continue
        n = rep.n
        ranks = ranks_of(rep)
        for q in range(1, n + 1):
            for s in range(q, n + 1):
                got = ranks._less_segment(q, s)
                assert got == ranks.sub(ranks_of(Representation(n, {(q, s): 1})))
                assert all(got._rows[i - 1] is ranks._rows[i - 1]
                           for i in range(1, n + 1) if not q <= i <= s)


def test_unchecked_constructor_matches_checked():
    mult = {(1, 2): 2, (3, 3): 1}
    rep = Representation._of_mult(3, dict(mult))
    assert rep == Representation(3, mult) and hash(rep) == hash(Representation(3, mult))
    with pytest.raises(AttributeError):
        rep.n = 4
    # the public constructor keeps its checks
    with pytest.raises(ValueError):
        Representation(3, {(2, 4): 1})


def test_representation_hash_is_consistent():
    """Every constructor and insertion order gives equal modules equal
    hashes, and a module hashes the same on every call."""
    mult = {(1, 2): 2, (3, 4): 1, (2, 2): 3}
    reps = [Representation(4, mult),
            Representation(4, dict(reversed(mult.items()))),
            Representation(4, {(1, 4): 0, **mult, (2, 3): 0}),
            Representation._of_mult(4, dict(mult)),
            Representation._of_mult(4, dict(sorted(mult.items())))]
    hashes = [hash(rep) for rep in reps]
    assert len(set(hashes)) == 1
    assert [hash(rep) for rep in reps] == hashes
    assert all(a == b for a in reps for b in reps)
    assert len(set(reps)) == 1
    # a module first hashed inside a set finds its equal already there
    assert Representation(4, dict(mult)) in set(reps)


def test_representation_equality_and_hash():
    """Equality compares n and the multiplicity maps; the hash reads the
    map as a set of items, so insertion order does not matter."""
    a = Representation(4, {(1, 2): 2, (3, 4): 1, (2, 2): 3})
    b = Representation(4, {(2, 2): 3, (3, 4): 1, (1, 2): 2})
    assert list(a.mult) != list(b.mult)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # zero counts are dropped by the public constructor
    c = Representation(4, {(1, 2): 2, (1, 4): 0, (3, 4): 1, (2, 2): 3})
    assert (1, 4) not in c.mult and c == a and hash(c) == hash(a)
    assert Representation(3, {(1, 1): 0}) == Representation(3)
    # the same map on a different chain is a different module
    assert Representation(4, {(1, 2): 1}) != Representation(5, {(1, 2): 1})
    assert a != Representation(4, {(1, 2): 2, (3, 4): 1, (2, 2): 2})
    # comparison with anything else is False, not an error
    for other in (a.key(), a.mult, ranks_of(a), None, 4):
        assert (a == other) is False and (a != other) is True


def test_mismatched_chains_raise():
    """Each two-argument function refuses arguments on chains of different
    lengths with MismatchedQuiver and its own message."""
    two, three = Representation(2, {(1, 2): 1}), Representation(3, {(1, 3): 1})
    with pytest.raises(MismatchedQuiver, match="^hom_dim needs both modules on the same chain$"):
        hom_dim(two, three)
    with pytest.raises(MismatchedQuiver, match="^ext_dim needs both modules on the same chain$"):
        ext_dim(two, three)
    with pytest.raises(MismatchedQuiver, match="^dimension vectors of different lengths$"):
        euler_form((1, 1), (1, 1, 1))
    with pytest.raises(MismatchedQuiver, match="^mismatched sizes in rank addition$"):
        ranks_of(two).add(ranks_of(three))
    with pytest.raises(MismatchedQuiver, match="^mismatched sizes in rank subtraction$"):
        ranks_of(two).sub(ranks_of(three))


def test_rank_sequence_value_class():
    ranks = RankSequence(2, [[2, 1], [1]])
    same = RankSequence(2, [(2, 1), (1,)])
    assert ranks == same and hash(ranks) == hash(same)
    assert ranks != RankSequence(2, [[2, 0], [1]]) and ranks != ranks.rows()
    assert repr(ranks) == "RankSequence(n=2, [[2, 1], [1]])"
    with pytest.raises(AttributeError, match="^RankSequence is immutable$"):
        ranks.n = 3


def test_zero_representation_repr():
    assert repr(Representation(3)) == "Representation(n=3, 0)"
    assert repr(Representation(3, {(1, 2): 0})) == "Representation(n=3, 0)"
