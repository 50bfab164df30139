"""Degeneration order and explicit degeneration paths.

M degenerates to N (same dimension vector) exactly when the rank sequence
of M dominates that of N entrywise.  This module provides the two
elementary moves that generate the order, a generic-quotient construction
that produces the moves witnessing one peeling step (one move per corner
of the staircase where a generic copy of the segment meets M), and a
path builder that factors an arbitrary degeneration into elementary moves.

Every move application is audited: the rank sequence of the result is
recomputed from its multiplicities and checked against the input's ranks
minus the move's predicted entrywise drop.  apply_move computes the
input's ranks itself; generic_quotient and the path builder pass on the
ranks they already hold, so along a path each module's ranks are
computed once.  The move closure (oracle.closure_enumerate) applies a
move (_applied), predicts its table (_predicted_rows) and audits it
(_audit) as separate steps: every edge is audited against ranks_of of
the child, computed once per distinct module the closure reaches.  The
path builder also carries each quotient module as generic_quotient took
it out of the last audited stage, so it never rebuilds a module from its
ranks or re-validates a rank table.  Modules built here are wrapped
without re-checking their segments (Representation._of_mult), a peeled
segment comes off a rank table as one block (RankSequence._less_segment),
and a predicted table rebuilds only the rows its moves lower.  The
module-level AUDIT counters record how many checks ran and whether any
failed.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .core import RankSequence, Representation, Segment, ranks_of
from .errors import (InsufficientMultiplicity, MismatchedQuiver, NoEmbedding,
                     NotComparable)


class Move(NamedTuple):
    """One elementary degeneration move on multiplicity data.

    cut(t, s, q) splits one copy of [t, s] at q, leaving [t, q-1] + [q, s];
    q is the first vertex of the right-hand part, t < q <= s.

    shift(t, s, q, r) trades copies of the nested pair [t, s], [q, r]
    for the crossing pair [t, r], [q, s]; here t < q <= r < s.
    """

    kind: str
    t: int
    s: int
    q: int
    r: Optional[int] = None

    @classmethod
    def cut(cls, t: int, s: int, q: int) -> "Move":
        if not (type(t) is type(s) is type(q) is int):
            raise ValueError("cut needs integer vertices, got (%r, %r, %r)" % (t, s, q))
        if not t < q <= s:
            raise ValueError("cut needs t < q <= s, got (%d, %d, %d)" % (t, s, q))
        return cls("cut", t, s, q)

    @classmethod
    def shift(cls, t: int, s: int, q: int, r: int) -> "Move":
        if not (type(t) is type(s) is type(q) is type(r) is int):
            raise ValueError("shift needs integer vertices, got (%r, %r, %r, %r)"
                             % (t, s, q, r))
        if not t < q <= r < s:
            raise ValueError("shift needs t < q <= r < s, got (%d, %d, %d, %d)"
                             % (t, s, q, r))
        return cls("shift", t, s, q, r)

    def drops(self) -> frozenset:
        """The set of rank entries (k, l) this move lowers by one."""
        k0, k1, l0, l1 = self._box()
        return frozenset((k, l) for k in range(k0, k1 + 1) for l in range(l0, l1 + 1))

    def _box(self) -> Tuple[int, int, int, int]:
        """drops() as the rectangle (first k, last k, first l, last l)."""
        return self.t, self.q - 1, self.q if self.kind == "cut" else self.r + 1, self.s


def move_to_json(move: Move) -> dict:
    data = {"kind": move.kind, "t": move.t, "s": move.s, "q": move.q}
    if move.r is not None:
        data["r"] = move.r
    return data


# counters for the always-on post-application rank check
AUDIT = {"applied": 0, "verified": 0, "violations": 0}


def reset_audit() -> None:
    for key in AUDIT:
        AUDIT[key] = 0


def _take(mult: Dict[Segment, int], seg: Segment, move: Optional[Move] = None) -> None:
    """Take one copy of seg out of mult, dropping its key at 0; move, if
    given, is the move that consumes it, for the error."""
    have = mult.get(seg, 0)
    if have < 1:
        raise InsufficientMultiplicity(
            "%s consumes U[%d,%d] but none is left"
            % ("move %r" % (move,) if move else "peeling", seg[0], seg[1]))
    if have == 1:
        del mult[seg]
    else:
        mult[seg] = have - 1


def _put(mult: Dict[Segment, int], seg: Segment) -> None:
    mult[seg] = mult.get(seg, 0) + 1


def apply_move(rep: Representation, move: Move) -> Representation:
    """Apply one elementary move and verify the predicted rank drop.

    Raises InsufficientMultiplicity when rep does not contain the segments
    the move consumes, and AssertionError if the recomputed rank sequence
    ever disagrees with the prediction (which would be a bug, and is
    tallied in AUDIT["violations"] before the raise).
    """
    return _apply_audited(rep, move, ranks_of(rep))[0]


def _apply_audited(rep: Representation, move: Move,
                   before: RankSequence) -> Tuple[Representation, RankSequence]:
    """apply_move for a caller that already holds before = ranks_of(rep).

    The result's ranks are always recomputed from its multiplicities and
    returned with it, so a chain of moves computes each module's ranks
    once.
    """
    out = _applied(rep, move)
    after = ranks_of(out)
    _audit(move, _predicted_rows(move, before), after)
    return out, after


def _applied(rep: Representation, move: Move) -> Representation:
    """rep with its multiplicities changed by move, not yet audited.
    Raises InsufficientMultiplicity as apply_move does."""
    mult = dict(rep.mult)
    if move.kind == "cut":
        _take(mult, (move.t, move.s), move)
        _put(mult, (move.t, move.q - 1))
        _put(mult, (move.q, move.s))
    elif move.kind == "shift":
        _take(mult, (move.t, move.s), move)
        _take(mult, (move.q, move.r), move)
        _put(mult, (move.t, move.r))
        _put(mult, (move.q, move.s))
    else:
        raise ValueError("unknown move kind %r" % (move.kind,))
    return Representation._of_mult(rep.n, mult)


def _predicted_rows(move: Move, before: RankSequence) -> Tuple[Tuple[int, ...], ...]:
    """The rows of before less one on move's box: the rank table move
    predicts for its output.  Only the box slices of the box rows are
    rebuilt; every other row is before's own row object."""
    k0, k1, l0, l1 = move._box()
    want = list(before._rows)
    for i in range(k0, k1 + 1):
        row, a, b = want[i - 1], l0 - i, l1 - i + 1
        want[i - 1] = row[:a] + tuple([v - 1 for v in row[a:b]]) + row[b:]
    return tuple(want)


def _audit(move: Move, want: Tuple[Tuple[int, ...], ...], after: RankSequence) -> None:
    """Check that after has the rows want = _predicted_rows(move, before),
    tallying the check in AUDIT.  before and after are the ranks of a
    module and of that module after move, each computed by ranks_of from
    its multiplicities; the tables are compared whole."""
    AUDIT["applied"] += 1
    if want != after._rows:
        i, j, w, g = next((i, j, w, g) for i, rw, rg in zip(count(1), want, after._rows)
                          for j, w, g in zip(count(i), rw, rg) if w != g)
        AUDIT["violations"] += 1
        raise AssertionError("rank check failed for %r at (%d, %d): expected %d, got %d"
                             % (move, i, j, w, g))
    AUDIT["verified"] += 1


def single_moves(rep: Representation) -> Iterator[Move]:
    """Every cut and shift rep's own segments allow: all cuts, then all
    shifts, each in sorted segment order.  Each applies to rep.  The loops
    yield valid moves only, so the moves are built without Move.cut and
    Move.shift's checks."""
    segs = sorted(rep.mult)
    for (t, s) in segs:
        for q in range(t + 1, s + 1):
            yield Move("cut", t, s, q)
    for (t, s) in segs:
        for (q, r) in segs:
            if t < q <= r < s:
                yield Move("shift", t, s, q, r)


def _dominated_ranks(M: Representation,
                     N: Representation) -> Tuple[RankSequence, RankSequence]:
    """(ranks_of(M), ranks_of(N)) when N is a degeneration of M: equal
    dimension vectors (the diagonals of the tables) and entrywise rank
    domination.  Raises MismatchedQuiver for modules on different chains
    and NotComparable otherwise.  Every order walk opens with it."""
    if M.n != N.n:
        raise MismatchedQuiver("modules live on different chains")
    R, RT = ranks_of(M), ranks_of(N)
    if R.diagonal() != RT.diagonal() or not R.dominates(RT):
        raise NotComparable("target is not a degeneration of the source")
    return R, RT


def degenerates(M: Representation, N: Representation) -> bool:
    """Is N a degeneration of M?  Needs equal dimension vectors and
    entrywise domination of rank sequences; raises MismatchedQuiver for
    modules on different chains."""
    try:
        _dominated_ranks(M, N)
    except NotComparable:
        return False
    return True


class QuotientReport(NamedTuple):
    """Outcome of taking the generic quotient of M by a segment L.

    ranks_Q   rank sequence of the generic quotient Q = M / L,
    ranks_LQ  rank sequence of L + Q (the degeneration of M realised
              by the listed moves),
    moves     elementary moves taking M to L + Q (empty when L splits off),
    markers   (t1, q1, t2, q2): the first and last corner (t, c) of the
              staircase, one move per corner; None in the split case,
    Q         the quotient module itself: the last stage (M in the
              split case) less one copy of L, so ranks_of(Q) == ranks_Q,
    stages    the module after each move, as the end-of-call check
              applied them (the last one is L + Q).
    """

    ranks_Q: RankSequence
    ranks_LQ: RankSequence
    moves: Tuple[Move, ...]
    markers: Optional[Tuple[int, int, int, int]]
    Q: Representation
    stages: Tuple[Representation, ...] = ()


def generic_quotient(M: Representation, q: int, s: int, *,
                     _ranks: Optional[RankSequence] = None) -> QuotientReport:
    """Generic quotient of M by one copy of U[q, s], with witnessing moves.

    Requires that U[q, s] embeds into M.  When the segment is a direct
    summand the quotient just drops it and no moves are needed.  Otherwise
    a staircase locates where a generic copy of U[q, s] sits inside M.
    How far short of split the embedding is at (k, l) is
        f(k, l) = (r(q, l) - r(k, l)) - (r(q, s + 1) - r(k, s + 1)),
    the count of segments [k', l'] of M with k < k' <= q and
    l <= l' <= s.  Walking l = q..s, t_l = min{k : f(k, l) = 0} (t = q
    before the walk) only falls, and a corner (t_l, l) is recorded
    wherever it does.  One move per corner degenerates M to
    U[q, s] + Q, whose ranks are M's less one exactly on the staircase,
    at (k, l) with t_l <= k < q; the rows of M outside t_s..q-1 are
    reused as they are.  The emitted moves are re-applied under audit and the
    result's ranks are checked against the predicted ranks of U[q, s] + Q
    before returning.  That check is the validity guard: once it passes,
    the predicted table is the rank table of a real module, so neither
    it nor ranks_Q is validated separately.  The last move puts U[q, s],
    and Q is the last stage without it.
    The path builder passes _ranks = ranks_of(M), which it already holds.
    Vertices other than ints 1 <= q <= s <= n raise ValueError.
    """
    n = M.n
    if not (type(q) is type(s) is int and 1 <= q <= s <= n):
        raise ValueError("segment (%r, %r) out of range" % (q, s))
    R = ranks_of(M) if _ranks is None else _ranks
    rows = R._rows
    # row q, and r(q, s + 1), which is the boundary zero at s = n
    rq = rows[q - 1]
    inside = s < n
    rq_out = rq[s + 1 - q] if inside else 0
    if rq[s - q] - rq_out <= 0:
        raise NoEmbedding("U[%d,%d] does not embed into %r" % (q, s, M))

    if M.m(q, s) > 0:
        mult = dict(M.mult)
        _take(mult, (q, s))
        return QuotientReport(ranks_Q=R._less_segment(q, s), ranks_LQ=R, moves=(),
                              markers=None, Q=Representation._of_mult(n, mult))

    # f shrinks as k or l grows, so its zeros form the staircase.  f(k, l)
    # = 0 reads rows q and k only: r(k, l) - r(k, s + 1) equals r(q, l) -
    # r(q, s + 1).  A non-split embedding forces q >= 2 and f(q-1, s) =
    # m_{q,s} = 0, so there is at least one corner.  A corner (t, l) that
    # drops t from above lowers rows t..above-1 on columns l..s.
    corners: List[Tuple[int, int]] = []
    lq_rows = list(rows)
    t = q
    for l in range(q, s + 1):
        above = t
        want = rq[l - q] - rq_out
        while t > 1:
            row = rows[t - 2]
            if row[l - t + 1] - (row[s - t + 2] if inside else 0) != want:
                break
            t -= 1
        if t < above:
            corners.append((t, l))
            for k in range(t, above):
                row, a, b = rows[k - 1], l - k, s - k + 1
                lq_rows[k - 1] = row[:a] + tuple([v - 1 for v in row[a:b]]) + row[b:]
    # one move per corner, on the segment ending just before the next one;
    # the last ends at s, so it puts the copy of U[q, s] that Q lacks
    ends = [c - 1 for _, c in corners[1:]] + [s]
    moves = tuple(Move.cut(t, e, q) if c == q else Move.shift(t, e, q, c - 1)
                  for (t, c), e in zip(corners, ends))
    ranks_LQ = RankSequence._of_rows(n, lq_rows)

    # applying the moves is what raises InsufficientMultiplicity on a bad list
    stages = []
    cur, ranks = M, R
    for move in moves:
        cur, ranks = _apply_audited(cur, move, ranks)
        stages.append(cur)
    if ranks != ranks_LQ:
        raise AssertionError("moves do not realise the predicted generic quotient")
    mult = dict(cur.mult)
    _take(mult, (q, s), moves[-1])
    return QuotientReport(ranks_Q=ranks_LQ._less_segment(q, s), ranks_LQ=ranks_LQ,
                          moves=moves, markers=corners[0] + corners[-1],
                          stages=tuple(stages), Q=Representation._of_mult(n, mult))


# --- degeneration paths ------------------------------------------------------

def degeneration_path(M: Representation, N: Representation) -> List[Tuple[Move, Representation]]:
    """A chain of elementary moves from M to N.

    Returns [(move_1, M_1), (move_2, M_2), ...] with each M_k the module
    after move_k and the last one equal to N.  Raises MismatchedQuiver
    for modules on different chains and NotComparable when N is not a
    degeneration of M (_dominated_ranks).

    The path peels off final segments of N one at a time: quotient the
    remaining part of M by the shortest segment U[q, top] of N ending at
    its top vertex (the one with the largest start q), and recurse on the
    quotient.  Rank domination makes that quotient dominate the rest of
    N; a step where it does not raises NotComparable.
    """
    R, RT = _dominated_ranks(M, N)
    n = M.n
    path: List[Tuple[Move, Representation]] = []
    done: Dict[Segment, int] = {}       # peeled-off segments, already matched
    cur = M                             # quotient still to be degenerated
    tgt = dict(N.mult)                  # what the quotient must become
    while cur.mult != tgt:              # R, RT: ranks of cur and tgt
        top = max(j for _, j in tgt)
        q = max(i for i, j in tgt if j == top)
        # U[q, top] embeds: r_M(q, top) >= r_N(q, top) >= m_N(q, top) > 0
        # and r(q, top + 1) = 0
        report = generic_quotient(cur, q, top, _ranks=R)
        RT = RT._less_segment(q, top)
        if not report.ranks_Q.dominates(RT):
            raise NotComparable("no final segment of the target can be peeled, "
                                "which contradicts rank domination")
        for move, stage in zip(report.moves, report.stages):
            path.append((move, Representation._of_mult(n, _merge(done, stage.mult))))
        R = report.ranks_Q
        cur = report.Q
        _put(done, (q, top))
        _take(tgt, (q, top))
    return path


def _merge(a: Dict[Segment, int], b: Dict[Segment, int]) -> Dict[Segment, int]:
    out = dict(a)
    for seg, m in b.items():
        out[seg] = out.get(seg, 0) + m
    return out
