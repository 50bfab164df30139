"""Modules over an equioriented chain quiver 1 -> 2 -> ... -> n.

Every module is a direct sum of segments U[i,j] (the indecomposable
supported on vertices i..j with identity maps), so a module is stored as
a multiplicity map  (i,j) -> m_{i,j} > 0.  The complete isomorphism
invariant is the rank sequence r_{i,j} = rank of the composite map from
vertex i to vertex j; both encodings are kept first class and are
interconvertible via ranks_of / rep_of.

The rank accessor RankSequence.r reads r_{i,j} for ints 0 <= i <= j <= n+1,
extending a table by the boundary convention r_{i,j} = 0 if i = 0 or
j = n+1; any other pair of indices, i > j included, raises IndexError.
"""

from __future__ import annotations

from itertools import accumulate, chain as _chain
from operator import ge as _ge
from typing import Dict, Iterator, List, Tuple

from .errors import InvalidRankSequence, MalformedInput, MismatchedQuiver

Segment = Tuple[int, int]
DimVector = Tuple[int, ...]


def sigma(v: int, n: int) -> int:
    """The order-reversing involution v -> n+1-v on the vertices 1..n."""
    return n + 1 - v


class Representation:
    """A finite direct sum of segments on the chain with n vertices.

    mult maps a segment (i, j) with 1 <= i <= j <= n to a positive
    multiplicity.  Instances are immutable and hashable; equality is
    isomorphism (multiplicity maps agree).
    """

    __slots__ = ("n", "mult")

    def __init__(self, n: int, mult: Dict[Segment, int] | None = None):
        if type(n) is not int or n < 1:
            raise ValueError("need at least one vertex, got n=%r" % (n,))
        clean: Dict[Segment, int] = {}
        for (i, j), m in (mult or {}).items():
            if not (type(i) is int and type(j) is int and 1 <= i <= j <= n):
                raise ValueError("segment (%r, %r) out of range for n=%r" % (i, j, n))
            if type(m) is not int or m < 0:
                raise ValueError("multiplicity of (%r, %r) must be a non-negative int" % (i, j))
            if m:
                clean[(i, j)] = m
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mult", clean)

    @classmethod
    def _of_mult(cls, n: int, mult: Dict[Segment, int]) -> "Representation":
        """Wrap a multiplicity map built inside the package, unchecked.

        Every segment must lie in 1..n and every count be a positive int;
        the map is taken over, so the caller must not change it later.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mult", mult)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def key(self) -> Tuple:
        """A sort key: n, then the segments and counts in sorted order."""
        return (self.n, tuple(sorted(self.mult.items())))

    # counts are positive, so equal modules have equal maps, in any order
    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.n == other.n and self.mult == other.mult)

    def __hash__(self):
        return hash((self.n, frozenset(self.mult.items())))

    def segments(self) -> Iterator[Tuple[Segment, int]]:
        return iter(sorted(self.mult.items()))

    def m(self, i: int, j: int) -> int:
        return self.mult.get((i, j), 0)

    def __repr__(self):
        if not self.mult:
            return "Representation(n=%d, 0)" % self.n
        parts = ["U[%d,%d]^%d" % (i, j, m) for (i, j), m in self.segments()]
        return "Representation(n=%d, %s)" % (self.n, " + ".join(parts))


def _corner_surplus_error(i: int, j: int) -> InvalidRankSequence:
    """The error for m_{i,j} < 0, i.e. validate()'s inequality (c) at (i, j)."""
    return InvalidRankSequence(
        "corner surplus fails at (%d,%d): r[%d,%d]-r[%d,%d] > r[%d,%d]-r[%d,%d]"
        % (i, j, i - 1, j, i - 1, j + 1, i, j, i, j + 1), indices=(i, j))


class RankSequence:
    """Upper-triangular matrix of composite-map ranks, with conventions.

    rows[i-1] holds (r_{i,i}, r_{i,i+1}, ..., r_{i,n}).  The accessor
    r(i, j) accepts ints 0 <= i <= j <= n+1 and raises IndexError otherwise;
    it gives 0 where i = 0 or j = n+1, and the stored entry elsewhere.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows):
        if type(n) is not int or n < 1:
            raise ValueError("need at least one vertex")
        rows = [tuple(row) for row in rows]
        if len(rows) != n or any(len(rows[i]) != n - i for i in range(n)):
            raise ValueError("expected a staircase of rows of lengths n, n-1, ..., 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", tuple(rows))

    @classmethod
    def _of_rows(cls, n: int, rows) -> "RankSequence":
        """Wrap a staircase of tuples built inside the package, unchecked.

        Build each row tuple from a list, not from a generator or map:
        those give no length hint, so the tuple is grown by realloc and, once
        freed, parks on a free list that exact-size allocations never drain
        (megabytes of peak RSS over a long run).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", tuple(rows))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RankSequence is immutable")

    def r(self, i: int, j: int):
        n = self.n
        if not (type(i) is type(j) is int and 0 <= i <= j <= n + 1):
            raise IndexError("rank index (%r, %r) outside 0 <= i <= j <= %d"
                             % (i, j, n + 1))
        if i == 0 or j == n + 1:
            return 0
        return self._rows[i - 1][j - i]

    def rows(self) -> List[List[int]]:
        return [list(row) for row in self._rows]

    def validate(self) -> None:
        """Check the three inequalities every genuine rank matrix satisfies.

        For all 1 <= i <= j <= n (boundary conventions applied):
          (a) r_{i,j} >= r_{i,j+1}            (ranks drop going right)
          (b) r_{i-1,j} <= r_{i,j}            (ranks drop going up)
          (c) r_{i-1,j} - r_{i-1,j+1} <= r_{i,j} - r_{i,j+1}

        Raises InvalidRankSequence naming the first offending (i, j).
        """
        self._validated_mult()

    def _validated_mult(self) -> Dict[Segment, int]:
        """validate(), returning the table's nonzero multiplicities
        m_{i,j} = r_{i,j} - r_{i,j+1} - r_{i-1,j} + r_{i-1,j+1} read in the
        same pass: inequality (c) at (i, j) is m_{i,j} >= 0.  Raises
        validate()'s InvalidRankSequence on the first offending (i, j)."""
        mult: Dict[Segment, int] = {}
        # row i padded with r_{i,n+1} = 0, so entry j sits at index j - i
        above = (0,) * (self.n + 1)
        for i, row in enumerate(self._rows, 1):
            here = row + (0,)
            for j, (v, right, up, up_right) in enumerate(
                    zip(here, here[1:], above, above[1:]), i):
                if type(v) is not int or v < 0:
                    raise InvalidRankSequence(
                        "entry r[%d,%d] is not a non-negative integer" % (i, j),
                        indices=(i, j))
                if v < right:
                    raise InvalidRankSequence(
                        "r[%d,%d] < r[%d,%d]" % (i, j, i, j + 1), indices=(i, j))
                if up > v:
                    raise InvalidRankSequence(
                        "r[%d,%d] > r[%d,%d]" % (i - 1, j, i, j), indices=(i, j))
                m = v - right - up + up_right
                if m < 0:
                    raise _corner_surplus_error(i, j)
                if m:
                    mult[(i, j)] = m
            above = here[1:]
        return mult

    def entries(self) -> Iterator[Tuple[int, int, int]]:
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                yield i, j, self._rows[i - 1][j - i]

    def total(self) -> int:
        return sum(v for _, _, v in self.entries())

    def diagonal(self) -> DimVector:
        return tuple([row[0] for row in self._rows])

    def dominates(self, other: "RankSequence") -> bool:
        if self.n != other.n:
            raise MismatchedQuiver("cannot compare ranks on %d and %d vertices"
                                   % (self.n, other.n))
        # both staircases have the same shape, so the chained rows align
        return all(map(_ge, _chain(*self._rows), _chain(*other._rows)))

    def add(self, other: "RankSequence") -> "RankSequence":
        if self.n != other.n:
            raise MismatchedQuiver("mismatched sizes in rank addition")
        return RankSequence._of_rows(self.n, [
            tuple([a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self._rows, other._rows)])

    def sub(self, other: "RankSequence") -> "RankSequence":
        if self.n != other.n:
            raise MismatchedQuiver("mismatched sizes in rank subtraction")
        return RankSequence._of_rows(self.n, [
            tuple([a - b for a, b in zip(ra, rb)])
            for ra, rb in zip(self._rows, other._rows)])

    def _less_segment(self, q: int, s: int) -> "RankSequence":
        """This table less the ranks of one copy of U[q, s], unchecked.

        Those ranks are 1 exactly on the block q <= i <= j <= s, so rows
        q..s lose 1 on their first s - i + 1 entries and every other row
        is reused as it is.
        """
        rows = list(self._rows)
        for i in range(q, s + 1):
            row = rows[i - 1]
            cut = s - i + 1
            rows[i - 1] = tuple([v - 1 for v in row[:cut]]) + row[cut:]
        return RankSequence._of_rows(self.n, rows)

    def __eq__(self, other):
        return (isinstance(other, RankSequence)
                and self.n == other.n and self._rows == other._rows)

    def __hash__(self):
        return hash((self.n, self._rows))

    def __repr__(self):
        return "RankSequence(n=%d, %r)" % (self.n, self.rows())


# --- conversions -----------------------------------------------------------

def ranks_of(rep: Representation) -> RankSequence:
    """Rank sequence of a module: r_{i,j} counts segments [k,l] with k<=i, j<=l.

    An exact recompute from the multiplicities, O(n^2 + |segments|), by
    r_{i,j} = r_{i-1,j} + #{copies of [i, l] with l >= j}.  A row where
    no segment starts is therefore the row above less its first entry,
    one tuple slice.  A row where one starts is the suffix sum, over
    l >= j, of the segments [k, l] with k <= i; those counts grow by the
    segments starting at i as i steps down the rows.
    """
    n = rep.n
    starting: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
    for (k, l), m in rep.mult.items():
        starting[k].append((l, m))
    ending = [0] * (n + 1)      # ending[l]: copies of [k, l] with k <= i
    rows = []
    row = (0,) * (n + 1)        # row 0 of the boundary convention
    for i in range(1, n + 1):
        if starting[i]:
            for l, m in starting[i]:
                ending[l] += m
            new = list(accumulate(reversed(ending[i:])))
            new.reverse()
            row = tuple(new)
        else:
            row = row[1:]
        rows.append(row)
    return RankSequence._of_rows(n, rows)


def rep_of(ranks: RankSequence) -> Representation:
    """Inverse of ranks_of, in one pass that also validates the input.

    m_{i,j} = r_{i,j} - r_{i,j+1} - r_{i-1,j} + r_{i-1,j+1}, read by the
    same pass over the table that checks validate()'s inequalities, so an
    invalid table raises validate()'s InvalidRankSequence and a valid one
    gives non-negative multiplicities.
    """
    return Representation._of_mult(ranks.n, ranks._validated_mult())


def dual(rep: Representation) -> Representation:
    """Reflect a module through sigma: U[i,j] goes to U[sigma(j), sigma(i)]."""
    n = rep.n
    return Representation(n, {(sigma(j, n), sigma(i, n)): m
                              for (i, j), m in rep.mult.items()})


def dim_vector(rep: Representation) -> DimVector:
    d = [0] * rep.n
    for (i, j), m in rep.mult.items():
        for v in range(i, j + 1):
            d[v - 1] += m
    return tuple(d)


def _counted_modules(n: int, remaining: List[int], items) -> Iterator[Representation]:
    """Every module that a count per item builds from remaining exactly.

    An item is (segments sharing its count, count step, cover as [(vertex
    index, weight)] taken from remaining per unit, closes): counts rise
    item by item, depth first, on an explicit stack of apply/undo level
    generators, so no depth meets the recursion limit.  An item that
    closes the start-i group (i the first segment's start) cuts any
    branch that leaves remaining[i - 1] above 0: no later item meets i.
    """
    mult: Dict[Segment, int] = {}

    def level(index: int) -> Iterator[None]:
        segs, step, cover, closes = items[index]
        start = segs[0][0] - 1
        for count in range(0, min(remaining[v] // w for v, w in cover) + 1, step):
            for v, w in cover:
                remaining[v] -= count * w
            if not (closes and remaining[start]):
                if count:
                    for seg in segs:
                        mult[seg] = count
                yield
            for seg in segs:
                mult.pop(seg, None)
            for v, w in cover:
                remaining[v] += count * w

    stack = [level(0)]
    while stack:
        for _ in stack[-1]:
            if len(stack) == len(items):
                yield Representation._of_mult(n, dict(mult))
            else:
                stack.append(level(len(stack)))
                break
        else:
            stack.pop()


def _dims_arg(dims) -> DimVector:
    """dims as a tuple; ValueError unless it is one or more ints >= 0."""
    dims = tuple(dims)
    if not dims or any(type(d) is not int or d < 0 for d in dims):
        raise ValueError("dims must be one or more non-negative integers, got %r"
                         % (dims,))
    return dims


def modules_with_dims(dims: DimVector) -> List[Representation]:
    """Every module with dimension vector dims, one per isomorphism class.

    From _counted_modules, one step-1 item per segment in the order [1, 1],
    [1, 2], ..., [n, n]: modules come in the order of their counts read
    segment by segment, and [i, n] closes start i, which cuts every branch
    that leaves vertex i short."""
    dims = _dims_arg(dims)
    n = len(dims)
    return list(_counted_modules(n, list(dims), [
        (((i, j),), 1, [(v - 1, 1) for v in range(i, j + 1)], j == n)
        for i in range(1, n + 1) for j in range(i, n + 1)]))


# --- hom / ext -------------------------------------------------------------

def _hom_segments(i: int, j: int, k: int, l: int) -> int:
    # one-dimensional iff the target window [k,l] catches the head of [i,j]
    return 1 if k <= i <= l <= j else 0


def _ext_segments(a: int, b: int, c: int, d: int) -> int:
    # Ext^1(U[a,b], U[c,d]) is one-dimensional iff a+1 <= c <= b+1 <= d.
    # The argument order was pinned against the matrix oracle (see
    # tests/test_core.py, the calibration regression).
    return 1 if a + 1 <= c <= b + 1 <= d else 0


def hom_dim(M: Representation, N: Representation) -> int:
    """Dimension of the space of module maps M -> N."""
    if M.n != N.n:
        raise MismatchedQuiver("hom_dim needs both modules on the same chain")
    return sum(mm * mn * _hom_segments(i, j, k, l)
               for (i, j), mm in M.mult.items()
               for (k, l), mn in N.mult.items())


def ext_dim(M: Representation, N: Representation) -> int:
    """Dimension of the extension space Ext^1(M, N)."""
    if M.n != N.n:
        raise MismatchedQuiver("ext_dim needs both modules on the same chain")
    return sum(mm * mn * _ext_segments(a, b, c, d)
               for (a, b), mm in M.mult.items()
               for (c, d), mn in N.mult.items())


def euler_form(d: DimVector, e: DimVector) -> int:
    """The bilinear form <d,e> = sum d_i e_i - sum_{i<n} d_i e_{i+1}.

    Satisfies hom_dim(M,N) - ext_dim(M,N) = <dim M, dim N> for all M, N.
    """
    if len(d) != len(e):
        raise MismatchedQuiver("dimension vectors of different lengths")
    n = len(d)
    return sum(d[i] * e[i] for i in range(n)) - sum(d[i] * e[i + 1] for i in range(n - 1))


# --- JSON ------------------------------------------------------------------

def rep_to_json(rep: Representation) -> dict:
    return {"n": rep.n,
            "mult": [{"i": i, "j": j, "m": m} for (i, j), m in rep.segments()]}


_JSON_KINDS = ((bool, "boolean"), (int, "integer"), (float, "number"),
               (str, "string"), (list, "array"), (dict, "object"))


def _json_kind(value) -> str:
    return next((name for cls, name in _JSON_KINDS if isinstance(value, cls)), "null")


def _json_expect(value, kind: str, name: str):
    """value itself if it is a JSON value of the given kind (a boolean is
    not an integer), else MalformedInput naming where it was found."""
    if _json_kind(value) != kind:
        raise MalformedInput("%s: expected %s, got %s" % (name, kind, _json_kind(value)))
    return value


def _json_field(obj, key: str, kind: str, path: str = ""):
    """obj[key] of the given kind, where obj is the JSON object at path
    ("" for the top level)."""
    _json_expect(obj, "object", "field %r" % path if path else "top level")
    path = "%s.%s" % (path, key) if path else key
    if key not in obj:
        raise MalformedInput("missing field %r" % path)
    return _json_expect(obj[key], kind, "field %r" % path)


def rep_from_json(data: dict) -> Representation:
    """The module of {"n": int, "mult": [{"i": int, "j": int, "m": int >= 0}]};
    repeated segments add up.  Raises MalformedInput on any other shape."""
    n = _json_field(data, "n", "integer")
    mult: Dict[Segment, int] = {}
    for k, entry in enumerate(_json_field(data, "mult", "array")):
        path = "mult[%d]" % k
        seg = (_json_field(entry, "i", "integer", path),
               _json_field(entry, "j", "integer", path))
        m = _json_field(entry, "m", "integer", path)
        if m < 0:
            raise MalformedInput("field '%s.m': expected a non-negative integer, got %d"
                                 % (path, m))
        mult[seg] = mult.get(seg, 0) + m
    return Representation(n, mult)


def ranks_to_json(ranks: RankSequence) -> dict:
    return {"n": ranks.n, "rows": ranks.rows()}


def ranks_from_json(data: dict) -> RankSequence:
    """The table of {"n": int, "rows": [[int, ...], ...]}.  Raises
    MalformedInput on any other shape.  The staircase lengths are checked
    by RankSequence, the rank inequalities by validate()."""
    n = _json_field(data, "n", "integer")
    rows = _json_field(data, "rows", "array")
    for k, row in enumerate(rows):
        for c, x in enumerate(_json_expect(row, "array", "field 'rows[%d]'" % k)):
            _json_expect(x, "integer", "field 'rows[%d][%d]'" % (k, c))
    return RankSequence(n, rows)
