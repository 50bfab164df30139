"""Degenerations compatible with a symplectic or orthogonal pairing.

A module on the chain 1 -> ... -> n is an epsilon-representation when its
multiplicity map is invariant under the reflection U[i,j] -> U[sigma(j),
sigma(i)], and, in the split types, every self-dual segment occurs with
even multiplicity.  Split means n odd with epsilon = -1 or n even with
epsilon = +1; only there do the paired elementary moves below exist.

The main entry point is sym_degeneration_path, which factors a rank-
dominated pair M >= N into peeling steps: each step splits off a final
segment L together with its reflection, replacing M by the subquotient
(generic isotropic copy of L)^perp / L.  The intermediate stages Z of the
degeneration and the per-step rank tables are returned for rendering.

sym_move_refinement writes such a pair as paired moves instead, by a walk
that commits, at each step, the first paired move keeping the result
above N.  It cannot stall: in the split types the closure of paired moves
is exactly symmetric rank domination.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple

from .core import (RankSequence, Representation, Segment, ranks_of, rep_of,
                   sigma)
from .degen import Move, apply_moves, degenerates
from .errors import (MismatchedQuiver, MismatchedType, NoEmbedding,
                     NotComparable, NotEpsilon, NotSplitType)


class SymmetricType:
    """The ambient pairing: n vertices and a sign epsilon in {-1, +1}.

    The split property singles out the types whose degeneration order is
    generated by paired moves: n odd with epsilon -1, or n even with +1.
    """

    __slots__ = ("n", "epsilon")

    def __init__(self, n: int, epsilon: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        if epsilon not in (-1, 1):
            raise ValueError("epsilon must be -1 or +1, got %r" % (epsilon,))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "epsilon", epsilon)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricType is immutable")

    @property
    def split(self) -> bool:
        return (self.n % 2 == 1) == (self.epsilon == -1)

    def __eq__(self, other):
        return (isinstance(other, SymmetricType)
                and self.n == other.n and self.epsilon == other.epsilon)

    def __hash__(self):
        return hash((self.n, self.epsilon))

    def __repr__(self):
        return "SymmetricType(n=%d, epsilon=%+d)" % (self.n, self.epsilon)


def is_epsilon_rank(ranks: RankSequence, sym: SymmetricType) -> bool:
    """Can this rank sequence come from a module with an epsilon-pairing?

    Needs invariance under (i, j) -> (sigma(j), sigma(i)) and, in the
    split types, even entries r_{i, sigma(i)} on the antidiagonal.
    """
    if ranks.n != sym.n:
        raise MismatchedQuiver("rank sequence and type have different sizes")
    n = sym.n
    rows = ranks._rows
    # r_{i,j} sits at rows[i-1][j-i]; its mirror r_{sigma(j),sigma(i)} at
    # rows[n-j][j-i], so row i must equal the diagonal read up from row n+1-i
    for i, row in enumerate(rows, 1):
        if any(value != rows[n - j][j - i] for j, value in enumerate(row, i)):
            return False
    if sym.split:
        for i in range(1, (n + 1) // 2 + 1):
            if rows[i - 1][sigma(i, n) - i] % 2 != 0:
                return False
    return True


def is_epsilon_rep(rep: Representation, sym: SymmetricType) -> bool:
    """Multiplicity-level twin of is_epsilon_rank (equivalent, cheaper)."""
    if rep.n != sym.n:
        raise MismatchedQuiver("module and type have different sizes")
    n = sym.n
    for (i, j), m in rep.mult.items():
        if m != rep.m(sigma(j, n), sigma(i, n)):
            return False
        if sym.split and (i, j) == (sigma(j, n), sigma(i, n)) and m % 2 != 0:
            return False
    return True


class EpsilonRep:
    """A module together with the symmetric type it is compatible with.

    Construction validates compatibility and raises NotEpsilon otherwise,
    so an EpsilonRep in hand is always a genuine epsilon-representation.
    """

    __slots__ = ("rep", "sym")

    def __init__(self, rep: Representation, sym: SymmetricType):
        if not is_epsilon_rep(rep, sym):
            raise NotEpsilon("%r is not a module of type %r" % (rep, sym))
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "sym", sym)

    def __setattr__(self, name, value):
        raise AttributeError("EpsilonRep is immutable")

    def __eq__(self, other):
        return (isinstance(other, EpsilonRep)
                and self.rep == other.rep and self.sym == other.sym)

    def __hash__(self):
        return hash((self.rep, self.sym))

    def __repr__(self):
        return "EpsilonRep(%r, %r)" % (self.rep, self.sym)


# --- paired moves ------------------------------------------------------------

class SymMove(NamedTuple):
    """A reflection-invariant pair of elementary moves.

    symcut(t, s, q) cuts one copy of [t, s] after column q (t <= q < s)
    and cuts the reflected copy at the mirrored place.  symshift(t, s, q,
    r) shifts [q, r] out of [t, s] and does the reflected shift.  expand
    produces the two ordinary constituents, in the order they are applied.
    """

    kind: str
    t: int
    s: int
    q: int
    r: Optional[int] = None

    @classmethod
    def symcut(cls, t: int, s: int, q: int) -> "SymMove":
        if not t <= q < s:
            raise ValueError("symcut needs t <= q < s, got (%d, %d, %d)" % (t, s, q))
        return cls("symcut", t, s, q)

    @classmethod
    def symshift(cls, t: int, s: int, q: int, r: int) -> "SymMove":
        if not t < q <= r < s:
            raise ValueError("symshift needs t < q <= r < s, got (%d, %d, %d, %d)"
                             % (t, s, q, r))
        return cls("symshift", t, s, q, r)

    def expand(self, sym: SymmetricType) -> Tuple[Move, Move]:
        n = sym.n
        if self.kind == "symcut":
            return (Move.cut(self.t, self.s, self.q + 1),
                    Move.cut(sigma(self.s, n), sigma(self.t, n), sigma(self.q, n)))
        return (Move.shift(self.t, self.s, self.q, self.r),
                Move.shift(sigma(self.s, n), sigma(self.t, n),
                           sigma(self.r, n), sigma(self.q, n)))


def symmove_from_json(data: dict) -> SymMove:
    if data["kind"] == "symcut":
        return SymMove.symcut(data["t"], data["s"], data["q"])
    if data["kind"] == "symshift":
        return SymMove.symshift(data["t"], data["s"], data["q"], data["r"])
    raise ValueError("unknown symmetric move kind %r" % (data["kind"],))


def sym_moves(erep: EpsilonRep) -> Iterator[SymMove]:
    """Every symcut and symshift on erep's own segments: all symcuts, then
    all symshifts, each in sorted segment order.

    Each applies to erep, so apply_sym_move never runs short of a
    segment: the reflected segment has the same multiplicity as the
    segment itself; a self-dual segment, consumed twice, has even
    multiplicity in the split types; and neither segment of a symshift
    is the reflection of the other, since [q, r] = [sigma(s), sigma(t)]
    would make t < q <= r < s force t + s < n + 1 < t + s.
    """
    segs = sorted(erep.rep.mult)
    for (t, s) in segs:
        for q in range(t, s):
            yield SymMove.symcut(t, s, q)
    for (t, s) in segs:
        for (q, r) in segs:
            if t < q <= r < s:
                yield SymMove.symshift(t, s, q, r)


SYM_AUDIT = {"applied": 0, "verified": 0, "violations": 0}


def reset_sym_audit() -> None:
    for key in SYM_AUDIT:
        SYM_AUDIT[key] = 0


def apply_sym_move(erep: EpsilonRep, move: SymMove) -> EpsilonRep:
    """Apply both constituents of a paired move.

    Only defined in the split types.  The result is revalidated as an
    epsilon-representation; a failure there counts as a violation in
    SYM_AUDIT and is re-raised, since it would mean the constituents did
    not come in a reflection-dual pair.
    """
    if not erep.sym.split:
        raise NotSplitType("paired moves only exist in the split types")
    first, second = move.expand(erep.sym)
    rep = apply_moves(erep.rep, (first, second))
    SYM_AUDIT["applied"] += 1
    try:
        out = EpsilonRep(rep, erep.sym)
    except NotEpsilon:
        SYM_AUDIT["violations"] += 1
        raise
    SYM_AUDIT["verified"] += 1
    return out


def sym_degenerates(M: EpsilonRep, N: EpsilonRep) -> bool:
    """Degeneration order on epsilon-representations of one type:
    equal dimension vectors and entrywise rank domination."""
    if M.sym != N.sym:
        raise MismatchedType("cannot compare %r with %r" % (M.sym, N.sym))
    return degenerates(M.rep, N.rep)


# --- perpendicular quotient --------------------------------------------------

def _support(diag) -> Optional[Tuple[int, int]]:
    nz = [v for v, d in enumerate(diag, 1) if d > 0]
    if not nz:
        return None
    return (nz[0], nz[-1])


def _perp_ranks(R: RankSequence, q: int, a: int, top: int) -> RankSequence:
    """Ranks of (generic isotropic U[q, top])^perp / U[q, top], where
    [a, top] is the symmetric support block inside the full chain."""
    n = R.n
    sq = sigma(q, n)
    rows = R._rows
    row_q = rows[q - 1]
    out = []
    for k, row in enumerate(rows, 1):
        if not a <= k <= top:
            out.append(row)
            continue
        # r_{q,l} and r_{k,sigma(q)} are infinite (no drop) below the diagonal
        r_k_sq = row[sq - k] if k <= sq else None
        new = list(row)
        for l in range(k, top + 1):
            value = row[l - k]
            drop = ((1 if l >= q and row_q[l - q] <= value else 0)
                    + (1 if r_k_sq is not None and r_k_sq <= value else 0))
            new[l - k] = value - drop
        out.append(tuple(new))
    return RankSequence._of_rows(n, out)


def perp_quotient_ranks(erep: EpsilonRep, q: int) -> RankSequence:
    """Rank sequence of L^perp / L for a generic isotropic embedding of
    L = U[q, top] into erep, where top is the last supported vertex.

    Only meaningful in the split types.  The result is returned in the
    coordinates of the full chain, with zeros outside the support block.
    """
    if not erep.sym.split:
        raise NotSplitType("perpendicular quotients need the split type")
    n = erep.sym.n
    R = ranks_of(erep.rep)
    span = _support(R.diagonal())
    if span is None:
        raise NoEmbedding("the zero module has no final segment to quotient by")
    a, top = span
    if not a <= q <= top:
        raise ValueError("vertex %d outside the support block [%d, %d]" % (q, a, top))
    if R.r(q, top) - R.r(q, top + 1) <= 0:
        raise NoEmbedding("U[%d,%d] does not embed into %r" % (q, top, erep.rep))

    out = _perp_ranks(R, q, a, top)
    out.validate()
    sq = sigma(q, n)
    for k in range(1, n + 1):
        want = (R.r(k, k) - (1 if q <= k <= top else 0)
                - (1 if a <= k <= sq else 0))
        if out.r(k, k) != want:
            raise AssertionError("diagonal drop is off at vertex %d" % k)
    if not is_epsilon_rank(out, erep.sym):
        raise AssertionError("perpendicular quotient lost symmetry")
    return out


# --- peeling paths -----------------------------------------------------------

class DegenStep(NamedTuple):
    """One stage of a symmetric degeneration sequence.

    Z is the epsilon-representation reached so far (Z of the first step
    is M itself, Z of the last is N).  L is the final segment peeled off
    at this stage, None on the terminal step.  support_interval is the
    symmetric support block of the remaining pair, None once everything
    is peeled away.  m_ranks / n_ranks are the rank tables of the
    remaining source and target, z_ranks the table of Z; all three are
    in global coordinates.
    """

    Z: "EpsilonRep"
    L: Optional[Segment]
    support_interval: Optional[Tuple[int, int]]
    m_ranks: RankSequence
    n_ranks: RankSequence
    z_ranks: RankSequence


def peel_label(seg: Segment, n: int) -> str:
    """Display name for a peeled segment: projective, simple, or plain."""
    q, j = seg
    if j == n:
        return "P_%d" % q
    if q == j:
        return "S_%d" % q
    return "U[%d,%d]" % (q, j)


def _segment_ranks(n: int, seg: Segment) -> RankSequence:
    return ranks_of(Representation(n, {seg: 1}))


def _zero_ranks(n: int) -> RankSequence:
    return RankSequence(n, [[0] * (n - i + 1) for i in range(1, n + 1)])


def sym_degeneration_path(M: EpsilonRep, N: EpsilonRep) -> List[DegenStep]:
    """Peel a rank-dominated pair M >= N down to nothing, in lockstep.

    Each step chooses a final segment L = U[q, top] of the remaining
    target, removes L and its reflection from the target, and replaces
    the remaining source by the perpendicular quotient along a generic
    isotropic copy of L.  L is the final segment with odd multiplicity
    and maximal q, or with maximal q if every multiplicity is even.
    Rank domination carries over to the remaining pair; a step where it
    does not raises NotComparable.

    Returns the list of steps, terminal step included.  Raises
    NotSplitType outside the split types and NotComparable when N is not
    a degeneration of M.
    """
    if M.sym != N.sym:
        raise MismatchedType("cannot relate %r with %r" % (M.sym, N.sym))
    if not M.sym.split:
        raise NotSplitType("degeneration sequences need the split type")
    rM, rN = ranks_of(M.rep), ranks_of(N.rep)
    # sym_degenerates(M, N) on the ranks (equal types give equal chains;
    # the diagonal is the dimension vector)
    if rM.diagonal() != rN.diagonal() or not rM.dominates(rN):
        raise NotComparable("target is not a degeneration of the source")

    sym = M.sym
    n = sym.n
    peeled = _zero_ranks(n)
    steps: List[DegenStep] = []
    while True:
        z_ranks = rM.add(peeled)
        Z = EpsilonRep(rep_of(z_ranks), sym)
        span = _support(rM.diagonal())
        if rM == rN:
            steps.append(DegenStep(Z=Z, L=None, support_interval=span,
                                   m_ranks=rM, n_ranks=rN, z_ranks=z_ranks))
            return steps
        a, top = span
        seg, pair, rM1, rN1 = _choose_peel(rM, rN, a, top, n)
        steps.append(DegenStep(Z=Z, L=seg, support_interval=span,
                               m_ranks=rM, n_ranks=rN, z_ranks=z_ranks))
        peeled = peeled.add(pair)
        rM, rN = rM1, rN1


def _choose_peel(rM: RankSequence, rN: RankSequence, a: int, top: int, n: int):
    """The peel L = U[q, top] of the next step: the final segment of the
    target with odd multiplicity and maximal q, else the one with
    maximal q.  Returns L, the ranks of L + L*, and the ranks of the
    remaining source and target.  Raises InvalidRankSequence if the
    perpendicular quotient formula yields no rank table, and
    NotComparable if the remaining source does not dominate the
    remaining target; rank domination rules out both."""

    def mult_at(i: int) -> int:
        return (rN.r(i, top) - rN.r(i - 1, top)
                - rN.r(i, top + 1) + rN.r(i - 1, top + 1))

    cands = [i for i in range(a, top + 1) if mult_at(i) > 0]
    q = max([i for i in cands if mult_at(i) % 2 == 1] or cands)
    seg = (q, top)
    # rN1 is N without two of its summands, so it needs no validation;
    # the two tables are added, not built as one module, so that a
    # self-dual L counts twice
    pair = _segment_ranks(n, seg).add(_segment_ranks(n, (a, sigma(q, n))))
    rM1 = _perp_ranks(rM, q, a, top)
    rM1.validate()
    rN1 = rN.sub(pair)
    if not rM1.dominates(rN1):
        raise NotComparable("no final segment of the target can be peeled, "
                            "which contradicts rank domination")
    return seg, pair, rM1, rN1


# --- refinement into explicit paired moves -----------------------------------

# never returned; kept because perfbench/workloads.py compares against it
INCONCLUSIVE = object()


def _fits(slack: RankSequence, boxes) -> bool:
    """Is there room in slack for the drops of two moves added together:
    one at every entry of either box, two where the boxes overlap?"""
    (a0, a1, b0, b1), (c0, c1, d0, d1) = boxes
    overlap = (max(a0, c0), min(a1, c1), max(b0, d0), min(b1, d1))
    return all(min(slack._rows[k - 1][l0 - k:l1 - k + 1], default=need) >= need
               for (k0, k1, l0, l1), need in ((boxes[0], 1), (boxes[1], 1), (overlap, 2))
               for k in range(k0, k1 + 1))


# budget is accepted and ignored: perfbench/workloads.py still passes it
def sym_move_refinement(start: EpsilonRep, target: EpsilonRep,
                        budget=None) -> List[SymMove]:
    """Paired moves taking start to target, by a deterministic walk.

    Each step commits the first sym_moves entry whose two constituents'
    drops, added together, fit inside ranks(cur) - ranks(target).  In the
    split types paired moves generate symmetric rank domination, so some
    entry always fits and the walk cannot stall; each step lowers the
    ranks, so it ends.  Returns the moves, [] when start equals target;
    raises NotComparable when target is not a degeneration of start.
    """
    if start.sym != target.sym:
        raise MismatchedType("cannot relate %r with %r" % (start.sym, target.sym))
    if not start.sym.split:
        raise NotSplitType("paired moves only exist in the split types")
    if start.rep == target.rep:
        return []
    if not sym_degenerates(start, target):
        raise NotComparable("target is not a degeneration of the start point")

    tgt = ranks_of(target.rep)
    cur, moves = start, []
    while cur.rep != target.rep:
        slack = ranks_of(cur.rep).sub(tgt)
        move = next((mv for mv in sym_moves(cur)
                     if _fits(slack, [m._box() for m in mv.expand(cur.sym)])), None)
        if move is None:
            raise NotComparable("no paired move keeps the walk above the target, "
                                "which contradicts rank domination")
        cur = apply_sym_move(cur, move)
        moves.append(move)
    return moves
