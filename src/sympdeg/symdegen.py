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

A symmetric degeneration is an ordinary one inside the type-A chain, so
the peel has no walk of its own: the staircase of each step's remaining
source table by L (degen._staircase, the walk of degen.generic_quotient)
gives one corner move per corner, the step applies each corner move
after its reflection (_reflected) and then takes off L and its
reflection.  One generator, _peel, makes the steps and yields each with
the corner moves it applied; sym_move_refinement turns these into paired
moves (_paired), each audited, and checks that the chain ends on N.
"""

from __future__ import annotations

from itertools import chain
from operator import ge
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .core import (RankSequence, Representation, Segment, _counted_modules, _dims_arg,
                   ranks_of, sigma)
from .degen import (Move, _apply_audited, _dominated_ranks, _merge, _move_mult, _put,
                    _staircase, _take, degenerates, single_moves)
from .errors import (MismatchedQuiver, MismatchedType, NoEmbedding,
                     NotComparable, NotEpsilon, NotSplitType)


class SymmetricType:
    """The ambient pairing: n vertices and a sign epsilon in {-1, +1}.

    The split property singles out the types whose degeneration order is
    generated by paired moves: n odd with epsilon -1, or n even with +1.
    """

    __slots__ = ("n", "epsilon")

    def __init__(self, n: int, epsilon: int):
        if type(n) is not int or n < 1:
            raise ValueError("need at least one vertex")
        if type(epsilon) is not int or epsilon not in (-1, 1):
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
    n1, split, mult = sym.n + 1, sym.split, rep.mult
    for (i, j), m in mult.items():
        # U[i,j] reflects to U[n+1-j, n+1-i]; it is self-dual iff i + j = n + 1
        if m != mult.get((n1 - j, n1 - i), 0):
            return False
        if split and i + j == n1 and m % 2:
            return False
    return True


def epsilon_modules_with_dims(dims, sym: SymmetricType) -> List[Representation]:
    """Every epsilon module of type sym with dimension vector dims, one per
    isomorphism class: the modules of core.modules_with_dims(dims) that
    is_epsilon_rep accepts, listed by the one search, core._counted_modules,
    in the order and with the start-group cut that _epsilon_modules sets."""
    return list(_epsilon_modules(dims, sym))


def _epsilon_modules(dims, sym: SymmetricType) -> Iterator[Representation]:
    """epsilon_modules_with_dims one module at a time.

    One core._counted_modules item per reflection pair, in the order of
    its representative [i, j], the one with i + j <= n + 1 (by i, then j),
    so modules come in the order of those counts; the reflection gets the
    same count, and a self-dual segment even counts in the split types.
    Dims that are not symmetric have no epsilon module, and symmetric dims
    are met once the left half 1..ceil(n/2) is.  No later pair meets
    vertex i, so the self-dual [i, sigma(i)] closes the start-i group and
    cuts every branch that leaves dimension at i.
    """
    n = sym.n
    dims = _dims_arg(dims)
    if len(dims) != n:
        raise MismatchedQuiver("dimension vector and type have different sizes")
    if dims != dims[::-1]:
        return
    half = (n + 1) // 2
    items = []
    for i in range(1, half + 1):
        for j in range(i, n + 2 - i):
            refl = (sigma(j, n), sigma(i, n))
            self_dual = refl == (i, j)
            # the pair's weight on each vertex of the left half
            weight = [(i <= v <= j) + (refl[0] <= v <= refl[1] and not self_dual)
                      for v in range(1, half + 1)]
            items.append((((i, j),) if self_dual else ((i, j), refl),
                          2 if sym.split and self_dual else 1,
                          [(v, w) for v, w in enumerate(weight) if w], self_dual))
    yield from _counted_modules(n, list(dims[:half]), items)


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
        if not (type(t) is type(s) is type(q) is int):
            raise ValueError("symcut needs integer vertices, got (%r, %r, %r)"
                             % (t, s, q))
        if not t <= q < s:
            raise ValueError("symcut needs t <= q < s, got (%d, %d, %d)" % (t, s, q))
        return cls("symcut", t, s, q)

    @classmethod
    def symshift(cls, t: int, s: int, q: int, r: int) -> "SymMove":
        if not (type(t) is type(s) is type(q) is type(r) is int):
            raise ValueError("symshift needs integer vertices, got (%r, %r, %r, %r)"
                             % (t, s, q, r))
        if not t < q <= r < s:
            raise ValueError("symshift needs t < q <= r < s, got (%d, %d, %d, %d)"
                             % (t, s, q, r))
        return cls("symshift", t, s, q, r)

    def expand(self, sym: SymmetricType) -> Tuple[Move, Move]:
        if self.kind == "symcut":
            first = Move.cut(self.t, self.s, self.q + 1)
        else:
            first = Move.shift(self.t, self.s, self.q, self.r)
        return first, _reflected(first, sym.n)


def _reflected(move: Move, n: int) -> Move:
    """The move that does to the reflected segments what move does to its
    own: cut(t, s, q) gives cut(s', t', q' + 1), shift(t, s, q, r) gives
    shift(s', t', r', q'), where v' = sigma(v).  It is valid when move is."""
    if move.kind == "cut":
        return Move("cut", sigma(move.s, n), sigma(move.t, n), sigma(move.q, n) + 1)
    return Move("shift", sigma(move.s, n), sigma(move.t, n),
                sigma(move.r, n), sigma(move.q, n))


def _paired(move: Move) -> SymMove:
    """The paired move whose first constituent is move."""
    if move.kind == "cut":
        return SymMove("symcut", move.t, move.s, move.q - 1)
    return SymMove("symshift", move.t, move.s, move.q, move.r)


def sym_moves(erep: EpsilonRep) -> Iterator[SymMove]:
    """The paired move of each degen.single_moves(erep.rep) entry, in its
    order: the one whose first constituent is that cut or shift.

    Each applies to erep, so apply_sym_move never runs short of a
    segment: the reflected segment has the same multiplicity as the
    segment itself; a self-dual segment, consumed twice, has even
    multiplicity in the split types; and neither segment of a symshift
    is the reflection of the other, since [q, r] = [sigma(s), sigma(t)]
    would make t < q <= r < s force t + s < n + 1 < t + s.
    """
    return map(_paired, single_moves(erep.rep))


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
    return _apply_sym_audited(erep, move, ranks_of(erep.rep))[0]


def _apply_sym_audited(erep: EpsilonRep, move: SymMove,
                       before: RankSequence) -> Tuple[EpsilonRep, RankSequence]:
    """apply_sym_move for a caller that already holds before =
    ranks_of(erep.rep); returns the result with its recomputed ranks."""
    if not erep.sym.split:
        raise NotSplitType("paired moves only exist in the split types")
    rep, ranks = erep.rep, before
    for constituent in move.expand(erep.sym):
        rep, ranks = _apply_audited(rep, constituent, ranks)
    SYM_AUDIT["applied"] += 1
    try:
        out = EpsilonRep(rep, erep.sym)
    except NotEpsilon:
        SYM_AUDIT["violations"] += 1
        raise
    SYM_AUDIT["verified"] += 1
    return out, ranks


def sym_degenerates(M: EpsilonRep, N: EpsilonRep) -> bool:
    """Degeneration order on epsilon-representations of one type:
    equal dimension vectors and entrywise rank domination."""
    if M.sym != N.sym:
        raise MismatchedType("cannot compare %r with %r" % (M.sym, N.sym))
    return degenerates(M.rep, N.rep)


def _split_pair(M: EpsilonRep, N: EpsilonRep) -> Tuple[RankSequence, RankSequence]:
    """(ranks_of(M.rep), ranks_of(N.rep)) for a pair of one split type
    with N a degeneration of M.  Raises MismatchedType for different
    types, then NotSplitType outside the split types, then
    NotComparable as degen._dominated_ranks does.  The peel, and through
    it the paired-move refinement, opens with it."""
    if M.sym != N.sym:
        raise MismatchedType("cannot relate %r with %r" % (M.sym, N.sym))
    if not M.sym.split:
        raise NotSplitType("paired moves only exist in the split types")
    return _dominated_ranks(M.rep, N.rep)


# --- perpendicular quotient --------------------------------------------------

def _support(diag) -> Optional[Tuple[int, int]]:
    nz = [v for v, d in enumerate(diag, 1) if d > 0]
    if not nz:
        return None
    return (nz[0], nz[-1])


def _perp_step(R: RankSequence, mult: Dict[Segment, int], q: int, a: int,
               top: int) -> Tuple[RankSequence, Tuple[Move, ...]]:
    """(table, moves): the ranks of (generic isotropic U[q, top])^perp /
    U[q, top], where R is the table of an epsilon module of a split type,
    0 outside its symmetric support block [a, top], and mult holds R's
    multiplicities, and the corner moves of the ordinary staircase of R
    by U[q, top] (degen._staircase, generic_quotient's walk).  mult
    becomes the quotient's: for each corner move m, the reflection of m
    and then m itself, the paired move sym_move_refinement forms; then
    one copy of U[q, top] and one of its reflection U[a, sigma(q)] come
    off.  A move or a peel that finds a segment missing raises
    InsufficientMultiplicity, which no epsilon module reaches.  The table
    is ranks_of the multiplicities left.
    """
    n = R.n
    moves = _staircase(R, q, top)[0]
    for move in moves:
        _move_mult(mult, _reflected(move, n))
        _move_mult(mult, move)
    _take(mult, (q, top))
    _take(mult, (a, sigma(q, n)))
    # the wrapper is dropped at once, so the caller may change mult later.
    # Rows outside the block are 0 before and after: R's own are kept, so
    # the tables of a held path share them
    rows = ranks_of(Representation._of_mult(n, mult))._rows
    return RankSequence._of_rows(n, R._rows[:a - 1] + rows[a - 1:top] + R._rows[top:]), moves


def perp_quotient_ranks(erep: EpsilonRep, q: int) -> RankSequence:
    """Rank sequence of L^perp / L for a generic isotropic embedding of
    L = U[q, top] into erep, where top is the last supported vertex.

    Only meaningful in the split types.  The result is returned in the
    coordinates of the full chain, with zeros outside the support block.
    It is the step of sym_degeneration_path (_perp_step), the paired
    moves of the ordinary staircase less L and its reflection; the
    diagonal drop and the symmetry are checked on top.
    """
    if type(q) is not int:
        raise ValueError("vertex must be an int, got %r" % (q,))
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

    out = _perp_step(R, dict(erep.rep.mult), q, a, top)[0]
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
    is M itself, Z of the last is N); its rank table is ranks_of(Z.rep).
    L is the final segment peeled off at this stage, None on the
    terminal step.  support_interval is the symmetric support block of
    the remaining pair, None once everything is peeled away.  m_ranks /
    n_ranks are the rank tables of the remaining source and target, in
    global coordinates.
    """

    Z: "EpsilonRep"
    L: Optional[Segment]
    support_interval: Optional[Tuple[int, int]]
    m_ranks: RankSequence
    n_ranks: RankSequence


def peel_label(seg: Segment, n: int) -> str:
    """Display name for a peeled segment: projective, simple, or plain."""
    q, j = seg
    if j == n:
        return "P_%d" % q
    if q == j:
        return "S_%d" % q
    return "U[%d,%d]" % (q, j)


def sym_degeneration_path(M: EpsilonRep, N: EpsilonRep) -> List[DegenStep]:
    """Peel a rank-dominated pair M >= N down to nothing, in lockstep.

    Each step chooses a final segment L = U[q, top] of the remaining
    target, removes L and its reflection from the target, and replaces
    the remaining source by the perpendicular quotient along a generic
    isotropic copy of L.  L is the final segment with odd multiplicity
    and maximal q, or with maximal q if every multiplicity is even.
    Rank domination carries over to the remaining pair; a step where it
    does not raises NotComparable.

    A step works on the support block [a, top] of the remaining pair:
    the remaining source and target are 0 outside it, L and its
    reflection U[a, sigma(q)] lie in it, and the perpendicular quotient
    changes nothing outside it.  The quotient (_perp_step) changes the
    source's multiplicities by the paired moves of the ordinary
    staircase of its table by L, the moves sym_move_refinement lists,
    takes L and its reflection off, and reads the table off what is
    left.  The blocks of L and its reflection come off the target
    (RankSequence._less_segment), and domination is checked on rows
    a..top only.

    Returns the list of steps, terminal step included.  Raises
    MismatchedType, NotSplitType or NotComparable as _split_pair does.
    """
    return [step for step, _ in _peel(M, N)]


def _peel(M: EpsilonRep, N: EpsilonRep) -> Iterator[Tuple[DegenStep, Tuple[Move, ...]]]:
    """sym_degeneration_path's loop: each step once its domination check
    passed, with the corner moves its _perp_step applied (() with the
    terminal step).  It carries only the ranks of the remaining pair, the
    target's multiplicities still to peel (L is chosen from them), the
    source's and those peeled so far.  Z is M on the first step; each
    later Z is the source's multiplicities plus the peeled ones.  A step
    builds no module for L and checks no row outside a..top."""
    rM, rN = _split_pair(M, N)
    sym, n = M.sym, M.sym.n
    # the source's multiplicities, the target's still to peel, those peeled
    mult, tgt, done = dict(M.rep.mult), dict(N.rep.mult), {}
    Z = M
    while rM != rN:
        span = a, top = _support(rM.diagonal())
        # the target is 0 outside [a, top], so its final segments start in it
        finals = {i: tgt[(i, top)] for i in range(a, top + 1) if (i, top) in tgt}
        q = max([i for i, m in finals.items() if m % 2] or finals)
        step = DegenStep(Z=Z, L=(q, top), support_interval=span, m_ranks=rM, n_ranks=rN)
        sq = sigma(q, n)
        rM, moves = _perp_step(rM, mult, q, a, top)
        # L and its reflection come off one by one (a self-dual L twice); rN
        # stays N less some of its summands, so it needs no validation
        for block in ((q, top), (a, sq)):
            _take(tgt, block)
            _put(done, block)
        rN = rN._less_segment(q, top)._less_segment(a, sq)
        if not all(map(ge, chain(*rM._rows[a - 1:top]), chain(*rN._rows[a - 1:top]))):
            raise NotComparable("no final segment of the target can be peeled, "
                                "which contradicts rank domination")
        yield step, moves
        Z = EpsilonRep(Representation._of_mult(n, _merge(mult, done)), sym)
    yield DegenStep(Z=Z, L=None, support_interval=_support(rM.diagonal()),
                    m_ranks=rM, n_ranks=rN), ()


# --- refinement into explicit paired moves -----------------------------------

# never returned; kept because perfbench/workloads.py compares against it
INCONCLUSIVE = object()


# budget is accepted and ignored: perfbench/workloads.py still passes it
def sym_move_refinement(start: EpsilonRep, target: EpsilonRep,
                        budget=None) -> List[SymMove]:
    """Paired moves taking start to target, read off the peel step by step
    (_peel): for each corner move m a step's _perp_step applied (the
    degen._staircase walk of the step's source table, walked once), the
    paired move whose second constituent it is, _paired(_reflected(m)).
    These are the moves the step applies to the source's multiplicities,
    so the chain passes through every Z of the peel.  Each corner move is
    audited once, as a constituent of its paired move, and a chain that
    misses target raises AssertionError.  Returns [] when start equals
    target; raises MismatchedType, NotSplitType or NotComparable as
    sym_degeneration_path does.
    """
    cur, R, moves = start, None, []
    for step, corner_moves in _peel(start, target):
        # the first step's source table is ranks_of(start.rep)
        R = step.m_ranks if R is None else R
        for m in corner_moves:
            # the paired move whose second constituent is m
            move = _paired(_reflected(m, start.sym.n))
            cur, R = _apply_sym_audited(cur, move, R)
            moves.append(move)
    if cur.rep != target.rep:
        raise AssertionError("paired moves from the peel end on %r, not on %r"
                             % (cur.rep, target.rep))
    return moves
