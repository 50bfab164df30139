"""Combinatorics of degenerate Lagrangian flag loci.

A locus is selected by a subset i of {1, ..., n-1}: the flag maps at the
chosen positions are replaced by coordinate projections, everything else
stays an inclusion.  This module collects the combinatorial companions
of that setup:

  * the module build_Mi whose orbits stratify the locus, on the chain
    with 2n-1 vertices;
  * index sequences (sigma_i, the doubled subset i', the gap sequence
    ell and its normalization h) relating weights on the symplectic side
    to weights on the ambient linear side;
  * distinguished Weyl group elements in types C and A given by explicit
    words, w_i_word and u_iprime_word;
  * a report (check_lemma_ui) comparing two closed-form predictions for
    the one-line values of the type-A element against its actual images;
  * the cone of root-indexed vectors cut out by the face inequalities
    (CRootVector, dynkin_face_contains), and a certified interior point;
  * the torus-fixed points of the Lagrangian part, as chains of
    coordinate subsets (lagrangian_fixed_points), and their number
    (count_lagrangian_fixed_points).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .core import Representation, sigma
from .coxeter import WeylWord, evaluate
from .errors import Infeasible
from .symdegen import EpsilonRep, SymmetricType

RootKey = Tuple[str, int, int]


class PbwSubset(NamedTuple):
    """The datum of a locus: n and a subset i of {1, ..., n-1}."""

    n: int
    i: Tuple[int, ...]

    @classmethod
    def make(cls, n: int, i) -> "PbwSubset":
        i = tuple(sorted(set(i)))
        if n < 1:
            raise ValueError("need n >= 1")
        for x in i:
            if not (isinstance(x, int) and 1 <= x <= n - 1):
                raise ValueError("subset entry %r outside 1..%d" % (x, n - 1))
        return cls(n, i)

    @property
    def t(self) -> int:
        return len(self.i)


def build_Mi(subset: PbwSubset):
    """The distinguished module of a locus, with its weight vector.

    Returns (EpsilonRep on the chain with 2n-1 vertices, e) where e =
    (1, 2, ..., 2n-1).  The module is F + reflection of F for F one copy
    of the final segment starting at sigma(i_k) and at i_k + 1 for every
    k, plus n - t copies of the full segment.
    """
    n, t = subset.n, subset.t
    N = 2 * n - 1
    mult: Dict[Tuple[int, int], int] = {}

    def add(a: int, b: int) -> None:
        mult[(a, b)] = mult.get((a, b), 0) + 1

    halves = [(1, N)] * (n - t)
    for ik in subset.i:
        halves.append((sigma(ik, N), N))
        halves.append((ik + 1, N))
    for (a, b) in halves:
        add(a, b)
        add(sigma(b, N), sigma(a, N))
    erep = EpsilonRep(Representation(N, mult), SymmetricType(N, -1))
    return erep, tuple(range(1, 2 * n))


# --- index sequences ---------------------------------------------------------

def sigma_i_map(subset: PbwSubset) -> Tuple[int, ...]:
    """The n values in 1..n+t that are not of the form i_k + k."""
    n, t = subset.n, subset.t
    taken = {ik + k for k, ik in enumerate(subset.i, 1)}
    return tuple(v for v in range(1, n + t + 1) if v not in taken)


def psi(subset: PbwSubset, lam) -> Tuple[int, ...]:
    """Spread a length-n weight over n+t slots along sigma_i, zero-filled."""
    lam = tuple(lam)
    if len(lam) != subset.n:
        raise ValueError("expected %d weight entries, got %d" % (subset.n, len(lam)))
    out = [0] * (subset.n + subset.t)
    for slot, value in zip(sigma_i_map(subset), lam):
        out[slot - 1] = value
    return tuple(out)


def iprime(subset: PbwSubset) -> Tuple[int, ...]:
    """The subset doubled into 1..2n-2: i together with its mirror."""
    n = subset.n
    return tuple(sorted(set(subset.i) | {2 * n - 1 - x for x in subset.i}))


def ell_sequence(subset: PbwSubset) -> Tuple[int, ...]:
    """The 2n values in 1..2n+2t that avoid the shifted doubled subset."""
    n, t = subset.n, subset.t
    avoid = {x + 1 for x in iprime(subset)}
    return tuple(v for v in range(1, 2 * n + 2 * t + 1) if v not in avoid)


def h_sequence(subset: PbwSubset) -> Tuple[int, ...]:
    return tuple(l - j for j, l in enumerate(ell_sequence(subset), 1))


def theta(subset: PbwSubset) -> Tuple[int, ...]:
    """Fundamental-weight reindexing: slot k feeds slot ell_k, k < 2n."""
    return ell_sequence(subset)[:2 * subset.n - 1]


# --- Weyl group elements -----------------------------------------------------

def w_i_word(subset: PbwSubset) -> WeylWord:
    """Distinguished type-C word on rank n+t.

    A descending staircase into the sign letter, then for each chosen
    position a block of ascending runs, one per value between the
    neighbouring subset entries.
    """
    n, t = subset.n, subset.t
    m = n + t
    letters: List[int] = []
    for j in range(m, t, -1):
        letters.extend(range(j, m + 1))
    ivals = (0,) + subset.i
    for k in range(t, 0, -1):
        lo = ivals[k - 1] + k
        hi = ivals[k] + k - 1
        for jj in range(hi, lo - 1, -1):
            letters.extend(range(k, jj + 1))
    return WeylWord.make("C", m, letters)


def u_iprime_word(subset: PbwSubset) -> WeylWord:
    """Companion type-A word on 2(n+t) symbols, same block template as
    w_i_word but driven by the doubled subset with both ends pinned."""
    n, t = subset.n, subset.t
    m = 2 * (n + t)
    vals = (0,) + iprime(subset) + (2 * n - 1,)
    letters: List[int] = []
    for k in range(2 * t + 1, 0, -1):
        lo = vals[k - 1] + k
        hi = vals[k] + k - 1
        for jj in range(hi, lo - 1, -1):
            letters.extend(range(k, jj + 1))
    return WeylWord.make("A", m, letters)


def check_lemma_ui(subset: PbwSubset) -> dict:
    """Compare closed-form predictions for the type-A one-line values
    against the evaluated word, row by row.

    For each j the gap ell_j - ell_{j-1} (with ell_0 = 0) selects a
    clause: gap 1 predicts u(ell_j) = h_j + (2n+2t+1-j); gap 2 predicts
    u(ell_j - 1) = h_j and u(ell_j) = h_j + 2n + 2t; larger gaps carry
    no prediction.  Every report row records the prediction, the actual
    images under the package's fixed left-to-right evaluation, whether
    they agree, and whether the prediction even lies in the symbol range
    1..2(n+t).  This function only reports; it never asserts agreement.
    """
    n, t = subset.n, subset.t
    m2 = 2 * (n + t)
    u = evaluate(u_iprime_word(subset))
    ell = ell_sequence(subset)
    h = h_sequence(subset)
    rows = []
    prev = 0
    for j in range(1, 2 * n + 1):
        lj = ell[j - 1]
        gap = lj - prev
        if gap == 1:
            pred: Optional[Tuple[int, ...]] = (h[j - 1] + (m2 + 1 - j),)
            actual = (u(lj),)
            clause: Optional[int] = 1
        elif gap == 2:
            pred = (h[j - 1], h[j - 1] + m2)
            actual = (u(lj - 1), u(lj))
            clause = 2
        else:
            pred = None
            actual = (u(lj),)
            clause = None
        anomaly = bool(pred) and any(not 1 <= p <= m2 for p in pred)
        rows.append({
            "j": j, "ell": lj, "h": h[j - 1], "gap": gap, "clause": clause,
            "predicted": pred, "actual": actual,
            "agree": (pred == actual) if pred is not None else None,
            "range_anomaly": anomaly,
        })
        prev = lj
    summary = {
        "rows": len(rows),
        "agree": sum(1 for r in rows if r["agree"] is True),
        "disagree": sum(1 for r in rows if r["agree"] is False),
        "no_prediction": sum(1 for r in rows if r["agree"] is None),
        "range_anomalies": sum(1 for r in rows if r["range_anomaly"]),
    }
    return {"n": n, "i": subset.i, "u": u.images, "rows": rows,
            "summary": summary}


# --- the face of root vectors ------------------------------------------------

def canonical_root_keys(n: int) -> List[RootKey]:
    """The n^2 positive roots: ("u", i, j) is e_i - e_{j+1} for j < n and
    e_i + e_n for j = n; ("b", i, j) is e_i + e_j, j <= n-1."""
    keys: List[RootKey] = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            keys.append(("u", i, j))
    for i in range(1, n):
        for j in range(i, n):
            keys.append(("b", i, j))
    return keys


def _key_minus(a: int, b: int) -> RootKey:
    # e_a - e_b with a < b
    return ("u", a, b - 1)


def _key_plus(a: int, b: int, n: int) -> RootKey:
    # e_a + e_b with a <= b
    if b == n:
        return ("u", a, n)
    return ("b", a, b)


def _segment_of_root(key: RootKey, n: int) -> Tuple[int, int]:
    """Each positive root matches a segment of the chain with 2n-1
    vertices: ("u", i, j) is [i, j] and ("b", i, j) is [i, 2n-j]."""
    kind, i, j = key
    if kind == "u":
        return (i, j)
    return (i, 2 * n - j)


class CRootVector:
    """An integer vector indexed by the n^2 positive roots.

    Entries are looked up by canonical key; construction checks that
    exactly the canonical keys are present.
    """

    __slots__ = ("n", "_d")

    def __init__(self, n: int, entries: Dict[RootKey, int]):
        need = canonical_root_keys(n)
        entries = dict(entries)
        if set(entries) != set(need):
            missing = sorted(set(need) - set(entries))
            extra = sorted(set(entries) - set(need))
            raise ValueError("bad root keys: missing %r, extra %r"
                             % (missing[:4], extra[:4]))
        for key, value in entries.items():
            if not isinstance(value, int):
                raise ValueError("entry %r is not an integer" % (key,))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_d", entries)

    def __setattr__(self, name, value):
        raise AttributeError("CRootVector is immutable")

    def d(self, key: RootKey) -> int:
        return self._d[key]

    def items(self):
        return sorted(self._d.items())

    def __eq__(self, other):
        return (isinstance(other, CRootVector)
                and self.n == other.n and self._d == other._d)

    def __hash__(self):
        return hash((self.n, tuple(self.items())))

    def __repr__(self):
        return "CRootVector(n=%d, %r)" % (self.n, dict(self.items()))


def zero_root_vector(n: int) -> CRootVector:
    return CRootVector(n, {key: 0 for key in canonical_root_keys(n)})


def _pair_constraints(subset: PbwSubset) -> Iterator[tuple]:
    """All additive pairs of positive roots, tagged by which inequality
    family applies.

    Two positive roots sum to a root exactly when they share a cancelled
    coordinate e_b: either {e_a - e_b, e_b - e_c} or {e_a - e_b, e_b +
    e_c}.  The junction wall is b - 1: at a chosen wall the vector may
    exceed additivity, elsewhere it must be exactly additive.
    """
    n = subset.n
    chosen = set(subset.i)
    for b in range(2, n + 1):
        wall = b - 1
        for a in range(1, b):
            beta1 = _key_minus(a, b)
            for c in range(b + 1, n + 1):
                if wall in chosen:
                    tag = "bullet1"
                else:
                    tag = "bullet3"
                yield ("pair", tag, wall, beta1, _key_minus(b, c),
                       _key_minus(a, c))
            for c in range(1, n + 1):
                beta2 = _key_plus(min(b, c), max(b, c), n)
                total = _key_plus(min(a, c), max(a, c), n)
                if wall in chosen:
                    tag = "bullet1" if c >= b else "bullet2"
                else:
                    tag = "bullet3"
                yield ("pair", tag, wall, beta1, beta2, total)


def _exchange_constraints(n: int) -> Iterator[tuple]:
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j, n + 1):
                for l in range(k + 1, n + 1):
                    yield ("exchange", "b4",
                           ("u", i, k), ("u", j, l), ("u", i, l), ("u", j, k))
    for i in range(1, n):
        for j in range(i + 1, n):
            for k in range(j, n):
                for l in range(j, n + 1):
                    yield ("exchange", "b5",
                           ("b", i, k), ("u", j, l), ("u", i, l), ("b", j, k))
    for i in range(1, n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    yield ("exchange", "b6",
                           ("b", i, j), ("b", k, l), ("b", i, k), ("b", j, l))
                    yield ("exchange", "b6",
                           ("b", i, j), ("b", k, l), ("b", i, l), ("b", j, k))


def dynkin_face_violations(subset: PbwSubset, d: CRootVector,
                           strict: bool = False) -> List[dict]:
    """Every broken constraint of the face, as self-describing dicts.

    Pair constraints compare d at two summands with d at their sum: at
    walls in the subset the sum of the parts must exceed the whole
    (weakly, or strictly in strict mode), elsewhere additivity is exact.
    Exchange constraints are equalities in both modes.
    """
    return list(_face_violations(subset, d, strict))


def dynkin_face_contains(subset: PbwSubset, d: CRootVector,
                         strict: bool = False) -> bool:
    """Does d satisfy every face constraint?  Stops at the first broken one."""
    return next(_face_violations(subset, d, strict), None) is None


def _face_violations(subset: PbwSubset, d: CRootVector,
                     strict: bool) -> Iterator[dict]:
    if d.n != subset.n:
        raise ValueError("vector has n=%d, subset has n=%d" % (d.n, subset.n))
    for _, tag, wall, b1, b2, total in _pair_constraints(subset):
        lhs = d.d(b1) + d.d(b2)
        rhs = d.d(total)
        if tag == "bullet3":
            ok = lhs == rhs
            relation = "=="
        elif strict:
            ok = lhs > rhs
            relation = ">"
        else:
            ok = lhs >= rhs
            relation = ">="
        if not ok:
            yield {"family": tag, "wall": wall, "roots": (b1, b2, total),
                   "lhs": lhs, "rhs": rhs, "relation": relation}
    for _, name, k1, k2, k3, k4 in _exchange_constraints(subset.n):
        lhs = d.d(k1) + d.d(k2)
        rhs = d.d(k3) + d.d(k4)
        if lhs != rhs:
            yield {"family": name, "wall": None,
                   "roots": (k1, k2, k3, k4),
                   "lhs": lhs, "rhs": rhs, "relation": "=="}


def find_interior_point(subset: PbwSubset) -> CRootVector:
    """A vector strictly inside the face: d at a root counts, negated,
    the doubled-subset walls interior to the matching segment.

    The count makes every exchange family telescope to an equality, and
    a pair constraint's slack is exactly one when its junction wall is
    chosen and zero otherwise.  The result is re-checked strictly; a
    failure would be a bug, reported as Infeasible.
    """
    n = subset.n
    ip = set(iprime(subset))
    entries = {}
    for key in canonical_root_keys(n):
        x, y = _segment_of_root(key, n)
        entries[key] = -len(ip & set(range(x, y)))
    d = CRootVector(n, entries)
    if not dynkin_face_contains(subset, d, strict=True):
        raise Infeasible("closed-form point fails the strict check")
    return d


# --- torus-fixed points ------------------------------------------------------

class FixedPoint(NamedTuple):
    """A fixed coordinate flag, stored by its first half.

    subsets[k-1] is S_k, the k-subset of 1..2n spanning the k-th member;
    members n+1 .. 2n-1 are the pairing-duals of the first half and are
    not stored.
    """

    n: int
    subsets: Tuple[Tuple[int, ...], ...]


def _dual_subset(s: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    kill = {2 * n + 1 - j for j in s}
    return tuple(v for v in range(1, 2 * n + 1) if v not in kill)


def fixed_point_chain(fp: FixedPoint) -> Tuple[Tuple[int, ...], ...]:
    """All 2n-1 members: the stored half, then duals in mirrored order."""
    n = fp.n
    chain = list(fp.subsets)
    for k in range(n - 1, 0, -1):
        chain.append(_dual_subset(fp.subsets[k - 1], n))
    return tuple(chain)


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _middle_members(n: int) -> Iterator[Tuple[int, ...]]:
    """The pairing-free n-subsets of 1..2n, in lexicographic order."""
    for sn in itertools.combinations(range(1, 2 * n + 1), n):
        if not any(2 * n + 1 - j in sn for j in sn):
            yield sn


def _members_below(sk: Tuple[int, ...], chosen) -> Iterator[Tuple[int, ...]]:
    """Every S_{k-1} that member S_k = sk (sorted) can sit above: sk less
    one element or, at a chosen wall k-1 (whose projection may discard
    k), any (k-1)-subset of sk with k added."""
    k = len(sk)
    pool = sorted(set(sk) | {k}) if k - 1 in chosen else sk
    return itertools.combinations(pool, k - 1)


def lagrangian_fixed_points(subset: PbwSubset) -> List[FixedPoint]:
    """Enumerate the fixed coordinate flags of the Lagrangian part, sorted.

    The middle member is any pairing-free n-subset of 1..2n; going down,
    each member drops one element of the previous one, except that at a
    chosen wall k the element k+1 may also be discarded by the
    projection.  The mirrored half is forced, and its compatibility with
    the mirrored projections comes for free; both facts are re-checked
    on every emitted point anyway.

    The lower chains are shared: a recursion over (k, S_k), memoised for
    the length of the call, builds the chains S_1, ..., S_k ending at
    each S_k once, and every member above reuses them.  Every emitted
    point still passes the self-check, whose bitmasks and cached
    verdicts are built once per call (_fixed_point_checker).

    The list has one entry per point, so its length is the Euler
    characteristic of the locus: 2^n n! for the empty subset, 60,134,210
    for n = 7 with the full subset.  count_lagrangian_fixed_points gives
    that number without building the points.
    """
    n = subset.n
    chosen = set(subset.i)
    check = _fixed_point_checker(n, subset)

    def chains_to(sk: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], ...]]:
        # every chain (S_1, ..., S_k) with S_k = sk; sk is sorted
        out = []
        for sub in _members_below(sk, chosen):
            out.extend([chain + (sk,) for chain in below[sub]])
        return out

    below = _Memo(chains_to)
    below[()] = [()]

    chains: List[Tuple[Tuple[int, ...], ...]] = []
    for sn in _middle_members(n):
        chains.extend(chains_to(sn))
    chains.sort()
    points = [FixedPoint(n, chain) for chain in chains]
    for fp in points:
        check(fp)
    return points


def count_lagrangian_fixed_points(subset: PbwSubset) -> int:
    """The number of fixed coordinate flags of the Lagrangian part, which
    is len(lagrangian_fixed_points(subset)) and the Euler characteristic
    of the locus (2^n n! for the empty subset).

    The same recursion over (k, S_k) as the enumeration, memoised for the
    length of the call, but it adds up the chains ending at each S_k
    instead of building them, so no point is materialised or self-checked;
    n = 7 (60,134,210 points) takes tens of milliseconds.
    """
    chosen = set(subset.i)
    below = _Memo(lambda sk: sum(map(below.__getitem__, _members_below(sk, chosen))))
    below[()] = 1
    return sum(map(below.__getitem__, _middle_members(subset.n)))


def _fixed_point_checker(n: int, subset: PbwSubset):
    """The self-check of the fixed points of one locus, built once.

    Returns check(fp), which raises AssertionError unless fp's chain has
    2n-1 members, member v has v elements, the middle member is
    self-dual, and every member v maps into member v+1 (dropping v+1 at
    a degenerate wall v, one in iprime(subset)), in both halves.

    Members are bitmasks, bit j for element j, and wall v keeps every bit
    but v+1 when it is degenerate.  Once the stored members have the
    right sizes, two consecutive ones S_k, S_{k+1} decide the size of
    the mirrored member dual(S_k) and the links S_k -> S_{k+1} and
    dual(S_{k+1}) -> dual(S_k), so that verdict is cached per pair; the
    caches live as long as the checker.  A point that fails is checked
    again condition by condition, in the order above, for the message.
    """
    top = 2 * n - 1
    degenerate = set(iprime(subset))
    keep = [~(1 << (v + 1)) if v in degenerate else -1 for v in range(top)]
    sizes = list(range(1, n + 1))
    # a member with an element outside 1..2n fails the self-dual check or
    # a size check (its dual drops nothing for that element), so the
    # masks need not hold it
    ground = range(1, 2 * n + 1)
    masks = _Memo(lambda s: sum(1 << j for j in set(s) if j in ground))
    duals = _Memo(lambda s: _dual_subset(s, n))

    def pair_holds(pair) -> bool:
        # a is S_k; for k = n-1, dual(b) stands for the self-dual middle
        a, b = pair
        k = len(a)
        da, db = duals[a], duals[b]
        return (len(da) == 2 * n - k
                and not masks[a] & keep[k] & ~masks[b]
                and not masks[db] & keep[top - k] & ~masks[da])

    pairs = _Memo(pair_holds)

    def check(fp: FixedPoint) -> None:
        half = fp.subsets
        if not (list(map(len, half)) == sizes and duals[half[-1]] == half[-1]
                and all(map(pairs.__getitem__, zip(half, half[1:])))):
            _raise_first_fault(fp, subset)

    return check


def _raise_first_fault(fp: FixedPoint, subset: PbwSubset) -> None:
    """The fixed-point conditions one by one, raising on the first that fails."""
    n = fp.n
    chain = fixed_point_chain(fp)
    if len(chain) != 2 * n - 1:
        raise AssertionError("chain has %d members, not %d" % (len(chain), 2 * n - 1))
    degenerate = set(iprime(subset))
    for v in range(1, 2 * n):
        if len(chain[v - 1]) != v:
            raise AssertionError("member %d has wrong size" % v)
    if _dual_subset(fp.subsets[n - 1], n) != fp.subsets[n - 1]:
        raise AssertionError("middle member is not self-dual")
    for v in range(1, 2 * n - 1):
        src = set(chain[v - 1])
        if v in degenerate:
            src.discard(v + 1)
        if not src <= set(chain[v]):
            raise AssertionError("member %d does not map into member %d" % (v, v + 1))


def _check_fixed_point(fp: FixedPoint, subset: PbwSubset) -> None:
    """Raise AssertionError unless fp is a fixed flag of the locus."""
    _fixed_point_checker(fp.n, subset)(fp)
