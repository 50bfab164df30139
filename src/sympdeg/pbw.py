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

import functools
import gc
import itertools
import threading
from math import comb
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
        if type(n) is not int or n < 1:
            raise ValueError("need an integer n >= 1, got %r" % (n,))
        i = tuple(i)
        for x in i:
            if not (type(x) is int and 1 <= x <= n - 1):
                raise ValueError("subset entry %r outside 1..%d" % (x, n - 1))
        return cls(n, tuple(sorted(set(i))))

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
        if type(n) is not int or n < 1:
            raise ValueError("need an integer n >= 1, got %r" % (n,))
        need = canonical_root_keys(n)
        entries = dict(entries)
        if set(entries) != set(need):
            missing = sorted(set(need) - set(entries))
            extra = sorted(set(entries) - set(need))
            raise ValueError("bad root keys: missing %r, extra %r"
                             % (missing[:4], extra[:4]))
        for key, value in entries.items():
            if type(value) is not int:
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


@functools.lru_cache(maxsize=8)
def _face_tables(n: int) -> Tuple[tuple, tuple]:
    """The constraint rows of the face at n, shared by every subset:
    every pair row, and a spanning set of the exchange rows.

    Pair rows are (wall, c >= b, (beta1, beta2, total)) for every
    additive pair of positive roots.  Two positive roots sum to a root
    exactly when they share a cancelled coordinate e_b: either {e_a -
    e_b, e_b - e_c} (c > b) or {e_a - e_b, e_b + e_c} (any c).  The
    junction wall is b - 1: at a chosen wall the vector may exceed
    additivity, elsewhere it must be exactly additive; which wall is
    chosen depends on the subset, so the rows carry no family tag.

    The exchange rows (_exchange_rows) are O(n^4) equalities, but their
    rank is O(n^2).  The second table holds O(n^2) of them, as root
    tuples (k1, k2, k3, k4) for d(k1) + d(k2) == d(k3) + d(k4), whose
    span contains every exchange row, so d satisfies them all exactly
    when it satisfies these.  Write u(p, q) and b(p, q) for d at ("u",
    p, q) and ("b", p, q), and for an exchange row E for the difference
    of its two sides, a linear form in d.  The spanning rows are

      A4(p, q) = E4(p, p+1, q, q+1)   for p + 1 <= q <= n - 1,
      A5(p, k) = E5(p, p+1, k, p+1)   for p + 1 <= k <= n - 1,
      A6(p, q), A6'(p, q) = E6, E6'(p, p+1, q, q+1)
                                      for p + 2 <= q <= n - 2,

    where, with the index ranges of _exchange_rows,

      E4(i, j, k, l)  = u(i, k) + u(j, l) - u(i, l) - u(j, k),
      E5(i, j, k, l)  = b(i, k) + u(j, l) - u(i, l) - b(j, k),
      E6(i, j, k, l)  = b(i, j) + b(k, l) - b(i, k) - b(j, l),
      E6'(i, j, k, l) = b(i, j) + b(k, l) - b(i, l) - b(j, k).

    Each row of _exchange_rows is a sum of spanning rows, for every n,
    and every E term below is a row of _exchange_rows (its indices are
    in range), so all its keys are roots:

      * E4 is the mixed difference of u over rows {i, j} and columns
        {k, l}, so it telescopes over the rectangle:
        E4(i, j, k, l) = sum of A4(p, q) for i <= p < j, k <= q < l.
        Every term has p + 1 <= j <= k <= q and q + 1 <= l <= n.
      * E5 telescopes in its first two indices: E5(i, j, k, l) = sum of
        E5(p, p+1, k, l) for i <= p < j, where p + 1 <= j <= k and
        p + 1 <= l.  Moving l down to p + 1 changes only the u terms:
        E5(p, p+1, k, l) = A5(p, k) + E4(p, p+1, p+1, l) for l > p + 1,
        and that E4 has p < p + 1 <= p + 1 < l <= n.
      * With D(i, j, k, l) = E6'(i, j, k, l) - E6(i, j, k, l), the mixed
        difference b(i, k) + b(j, l) - b(i, l) - b(j, k) of b over rows
        {i, j} and columns {k, l} with j < k, the same rectangle sum
        gives D(i, j, k, l) = sum of A6'(p, q) - A6(p, q) for
        i <= p < j, k <= q < l, where p + 1 <= j < k <= q.  Then, for
        i < j < k < l <= n - 1,
        E6(i, j, k, l) = A6(j-1, k) + D(i, j-1, j, k) + D(j, k, k+1, l),
        where the first D is left out when i = j - 1 and the second when
        l = k + 1 (expand both sides: the b terms cancel pairwise), and
        E6' = E6 + D(i, j, k, l).

    So the table holds (n-1)(n-2) rows of the first two families and
    (n-3)(n-4) of the third: 62 at n = 8 against 448 exchange rows.
    """
    pairs = []
    for b in range(2, n + 1):
        wall = b - 1
        for a in range(1, b):
            beta1 = _key_minus(a, b)
            for c in range(b + 1, n + 1):
                pairs.append((wall, True, (beta1, _key_minus(b, c), _key_minus(a, c))))
            for c in range(1, n + 1):
                pairs.append((wall, c >= b, (beta1, _key_plus(min(b, c), max(b, c), n),
                                             _key_plus(min(a, c), max(a, c), n))))
    spanning = []
    for p in range(1, n):
        for q in range(p + 1, n):
            spanning.append((("u", p, q), ("u", p + 1, q + 1),
                             ("u", p, q + 1), ("u", p + 1, q)))
            spanning.append((("b", p, q), ("u", p + 1, p + 1),
                             ("u", p, p + 1), ("b", p + 1, q)))
        for q in range(p + 2, n - 1):
            spanning.append((("b", p, p + 1), ("b", q, q + 1),
                             ("b", p, q), ("b", p + 1, q + 1)))
            spanning.append((("b", p, p + 1), ("b", q, q + 1),
                             ("b", p, q + 1), ("b", p + 1, q)))
    # the cache keeps one tuple per root, not one per mention
    canon = {key: key for key in canonical_root_keys(n)}
    return (tuple([(wall, ge, tuple([canon[k] for k in roots])) for wall, ge, roots in pairs]),
            tuple([tuple([canon[k] for k in roots]) for roots in spanning]))


def _exchange_rows(n: int) -> Iterator[Tuple[str, Tuple[RootKey, ...]]]:
    """Every exchange row at n, as (family, (k1, k2, k3, k4)) for the
    equality d(k1) + d(k2) == d(k3) + d(k4), in table order, built on
    demand: O(n^4) rows, so nothing keeps them."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j, n + 1):
                for l in range(k + 1, n + 1):
                    yield ("b4", (("u", i, k), ("u", j, l), ("u", i, l), ("u", j, k)))
    for i in range(1, n):
        for j in range(i + 1, n):
            for k in range(j, n):
                for l in range(j, n + 1):
                    yield ("b5", (("b", i, k), ("u", j, l), ("u", i, l), ("b", j, k)))
    for i in range(1, n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    yield ("b6", (("b", i, j), ("b", k, l), ("b", i, k), ("b", j, l)))
                    yield ("b6", (("b", i, j), ("b", k, l), ("b", i, l), ("b", j, k)))


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
    """The broken constraints, pair rows first, each in table order.

    The rows come from _face_tables(n), built once per n; a pair row is
    tagged here, from the subset: bullet1 (c >= b) or bullet2 at a chosen
    wall, bullet3 elsewhere.  The exchange rows are checked on the
    spanning rows of the table: if those hold, every exchange row holds
    and there is nothing left to report.  Only when one fails are the
    full rows of _exchange_rows walked, to report each broken one.
    """
    if d.n != subset.n:
        raise ValueError("vector has n=%d, subset has n=%d" % (d.n, subset.n))
    pairs, spanning = _face_tables(subset.n)
    chosen = set(subset.i)
    dd = d._d
    exceeds = ">" if strict else ">="
    for wall, ge, roots in pairs:
        b1, b2, total = roots
        lhs = dd[b1] + dd[b2]
        rhs = dd[total]
        if wall in chosen:
            if lhs > rhs or (lhs == rhs and not strict):
                continue
            family, relation = ("bullet1" if ge else "bullet2"), exceeds
        elif lhs == rhs:
            continue
        else:
            family, relation = "bullet3", "=="
        yield {"family": family, "wall": wall, "roots": roots,
               "lhs": lhs, "rhs": rhs, "relation": relation}
    for k1, k2, k3, k4 in spanning:
        if dd[k1] + dd[k2] != dd[k3] + dd[k4]:
            break
    else:
        return
    for family, roots in _exchange_rows(subset.n):
        k1, k2, k3, k4 = roots
        lhs = dd[k1] + dd[k2]
        rhs = dd[k3] + dd[k4]
        if lhs != rhs:
            yield {"family": family, "wall": None, "roots": roots,
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
    # below[x] counts the doubled-subset walls < x, so the walls in
    # [x, y) number below[y] - below[x]
    below = list(itertools.accumulate((v in ip for v in range(2 * n)), initial=0))
    entries = {}
    for key in canonical_root_keys(n):
        x, y = _segment_of_root(key, n)
        entries[key] = below[x] - below[y]
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
    if len(fp.subsets) != n:
        raise ValueError("fixed point stores %d members, not %d" % (len(fp.subsets), n))
    chain = list(fp.subsets)
    for k in range(n - 1, 0, -1):
        chain.append(_dual_subset(fp.subsets[k - 1], n))
    return tuple(chain)


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


class _collector_paused:
    """Run the block with the cyclic garbage collector off.  The switch is
    process-wide, so this is the package's one place that touches it, and
    pauses may overlap, in one thread or several: the first to open
    records whether the collector was on and switches it off, and the
    last to close switches it back on if it was, also when its block
    raises.  The lock makes each record-and-switch one step, so no pause
    takes another's for the caller's state and leaves the collector off.

    Nothing is allocated after the switch goes back on, so the one
    collector pass over what the block made and left alive runs at the
    caller's next allocation, after the block's own temporaries are
    freed, and finds nothing to do if the caller has dropped the result
    by then."""

    _lock = threading.Lock()
    _open = 0           # pauses open in the process
    _restore = False    # whether the first of them found the collector on

    def __enter__(self):
        cls = _collector_paused
        with cls._lock:
            if not cls._open:
                cls._restore = gc.isenabled()
                gc.disable()
            cls._open += 1

    def __exit__(self, *exc_info):
        cls = _collector_paused
        with cls._lock:
            cls._open -= 1
            if not cls._open and cls._restore:
                gc.enable()


def lagrangian_fixed_points(subset: PbwSubset) -> List[FixedPoint]:
    """Enumerate the fixed coordinate flags of the Lagrangian part, sorted.

    The middle member is any pairing-free n-subset of 1..2n; going down,
    each member drops one element of the previous one, except that at a
    chosen wall k the element k+1 may also be discarded by the
    projection.  The mirrored half is forced, and its compatibility with
    the mirrored projections comes for free; both facts are re-checked
    anyway, once per edge of the member graph.

    The member graph is built once per call: walking down from the
    middle members level by level collects every member some chain can
    pass through, and above[S_k] lists the members S_{k+1} that S_k can
    sit below, as sorted 1-tuples (S_{k+1},).  Each member's set and the
    set of its dual are computed once, when the member is first met (one
    dict probe per edge), the dual's set directly as 1..2n less the
    mirror images 2n+1-j of the member's elements.

    The self-check runs on the graph, not on the points.  Each middle
    member is checked to be self-dual, and each edge lo -> hi, as it is
    added, for the sizes of hi and of the mirrored member dual(hi), and
    above the bottom edges from () for the link lo -> hi at wall v =
    len(lo) and the mirrored link dual(hi) -> dual(lo) at wall 2n-1-v
    (the test of _maps_into, on the stored sets).

    The chains are then built level by level: every prefix S_1, ..., S_k
    in the sorted list of prefixes is extended by each entry of
    above[S_k], in order.  So the prefixes stay sorted at every level,
    and the list comes out in lexicographic order without a sort.  The
    full chains are wrapped in one map over zip(repeat(n), chains): each
    point costs its chain tuple and its FixedPoint, built by tuple.__new__
    in C, with no per-point bytecode.  Every
    emitted chain is a path () -> S_1 -> ... -> S_n through checked
    edges, and every condition of _check_fixed_point is a condition on
    one such edge or on S_n, so every point is fully covered, and each
    verdict is computed once instead of once per chain through it.

    The graph and the chains are built with the cyclic garbage collector
    paused (_collector_paused).  Every point is two tuples the collector
    tracks, so on a running collector the build sets off hundreds of
    collections that cannot free anything: the build makes only tuples,
    lists, dicts and sets, with no reference cycle among them
    (tests/test_pbw.py pins that).  The caller's collector state is
    restored when the call returns or raises.  The switch is
    process-wide, so while a call runs no other thread's cycles are
    collected either; they wait until it returns, or until the last of
    several overlapping calls returns.

    The list has one entry per point, so its length is the Euler
    characteristic of the locus: 2^n n! for the empty subset, 60,134,210
    for n = 7 with the full subset.  count_lagrangian_fixed_points gives
    that number without building the points.
    """
    n = subset.n
    chosen = set(subset.i)
    degenerate = set(iprime(subset))
    every = set(range(1, 2 * n + 1))

    with _collector_paused():
        level = list(_middle_members(n))
        for sn in level:
            if _dual_subset(sn, n) != sn:
                raise AssertionError("middle member is not self-dual")
        # sets[S] = (set(S), set(dual(S))); a middle member is its own dual
        sets = {sn: (set(sn), set(sn)) for sn in level}
        # above[S_k]: the 1-tuples (S_{k+1},) that S_k can sit below, with
        # above[()] the 1-element members.  Each level is walked in sorted
        # order, so every list is appended to in sorted order.
        above: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...]]]] = {}
        for k in range(n, 0, -1):
            v, w = k - 1, 2 * n - k
            below: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...]]]] = {}
            for hi in level:
                hi_set, dual_hi = sets[hi]
                if len(hi) != k:
                    raise AssertionError("member %d has wrong size" % k)
                if len(dual_hi) != w:
                    raise AssertionError("member %d has wrong size" % w)
                # lo maps into hi at wall v iff lo lies in hi plus the element
                # the wall may drop; likewise dual(hi) into dual(lo) at wall w
                if v in degenerate:
                    hi_set = hi_set | {v + 1}
                if w in degenerate:
                    dual_hi = dual_hi - {w + 1}
                up = (hi,)
                for lo in _members_below(hi, chosen):
                    lo_sets = sets.get(lo)
                    if lo_sets is None:
                        lo_sets = sets[lo] = (set(lo), every - {2 * n + 1 - j for j in lo})
                    lo_set, dual_lo = lo_sets
                    if v and not lo_set <= hi_set:
                        raise AssertionError("member %d does not map into member %d"
                                             % (v, k))
                    if v and not dual_hi <= dual_lo:
                        raise AssertionError("member %d does not map into member %d"
                                             % (w, 2 * n - v))
                    below.setdefault(lo, []).append(up)
            above.update(below)
            level = sorted(below)

        # above[()] holds the one-member prefixes (S_1,) themselves
        chains: List[Tuple[Tuple[int, ...], ...]] = above[()]
        for _ in range(n - 1):
            chains = [c + up for c in chains for up in above[c[-1]]]
        # one C-level pass builds each FixedPoint from a (n, chain) pair that
        # zip reuses, without the namedtuple's Python-level __new__
        return list(map(tuple.__new__, itertools.repeat(FixedPoint),
                        zip(itertools.repeat(n), chains)))


def count_lagrangian_fixed_points(subset: PbwSubset) -> int:
    """The number of fixed coordinate flags of the Lagrangian part, which
    is len(lagrangian_fixed_points(subset)) and the Euler characteristic
    of the locus (2^n n! for the empty subset), in O(n^2) integer steps.
    No subset has fewer: a chosen wall only widens the members below
    (_members_below), so every chain of the empty subset is one of every
    subset.

    Going down from S_k, only the element k is special: a chosen wall
    k-1 may discard it (_members_below), and elements above k are never
    special again.  So the chains from the middle members down to the
    S_k that meet 1..k in one set number the same for every set of size
    c; total[c] counts them over all S_k with c elements in 1..k.  It
    starts at comb(n, c), one middle member per choice from the pairs
    {j, 2n+1-j}, and the part whose S_k holds k is total[c] * c // k
    exactly.  S_{k-1} is S_k (plus k at a chosen wall if S_k lacks it)
    less one element (two if k was added); each lost element of 1..k-1
    lowers c by one.  The count is total[0] after level 1.
    """
    n = subset.n
    total = [comb(n, c) for c in range(n + 1)]
    for k in range(n, 0, -1):
        wall = k - 1 in subset.i
        below = [0] * k
        for c, weight in enumerate(total):
            has = weight * c // k
            # (chains, pool elements in 1..k-1, pool elements >= k, lost)
            for w, small, large, drop in ((has, c - 1, k - c + 1, 1),
                                          (weight - has, c, k - c + wall, 1 + wall)):
                for j in range(max(0, drop - large), min(drop, small) + 1):
                    below[small - j] += w * comb(small, j) * comb(large, drop - j)
        total = below
    return total[0]


def _maps_into(lo: Tuple[int, ...], hi: Tuple[int, ...], v: int, degenerate) -> bool:
    """Does member v (lo) map into member v+1 (hi)?  The map at wall v is
    the inclusion, except that it drops v+1 at a degenerate wall, one in
    degenerate = set(iprime(subset))."""
    src = set(lo)
    if v in degenerate:
        src.discard(v + 1)
    return src <= set(hi)


def _check_fixed_point(fp: FixedPoint, subset: PbwSubset) -> None:
    """Raise AssertionError unless fp is a fixed flag of the locus: its
    chain has 2n-1 members, member v has v elements, the middle member is
    self-dual, and every member v maps into member v+1 (_maps_into), in
    both halves.  The conditions are tested in that order, and the first
    that fails raises."""
    n = fp.n
    if len(fp.subsets) != n:
        raise AssertionError("chain has %d members, not %d"
                             % (len(fp.subsets) + n - 1, 2 * n - 1))
    chain = fixed_point_chain(fp)
    degenerate = set(iprime(subset))
    for v in range(1, 2 * n):
        if len(chain[v - 1]) != v:
            raise AssertionError("member %d has wrong size" % v)
    if _dual_subset(fp.subsets[n - 1], n) != fp.subsets[n - 1]:
        raise AssertionError("middle member is not self-dual")
    for v in range(1, 2 * n - 1):
        if not _maps_into(chain[v - 1], chain[v], v, degenerate):
            raise AssertionError("member %d does not map into member %d" % (v, v + 1))
