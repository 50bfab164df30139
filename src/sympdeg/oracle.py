"""Independent ground truth via explicit matrices.

Everything here recomputes what the combinatorial formulas in core/
degen/symdegen claim, but from scratch: build actual integer matrices
for a module, take exact ranks, solve intertwining systems, realize the
bilinear forms, enumerate move closures.  No result in this module is
derived from the formulas it is meant to check.

All arithmetic is exact (Fraction elimination over Python ints).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import core, degen, symdegen
from .core import Representation, RankSequence, sigma
from .errors import InstanceTooLarge, MismatchedQuiver, NotEpsilon


class MatrixRealization:
    """A module as honest matrices.

    spaces[v-1] is the basis of vertex v, a list of (instance, position)
    tags; maps[v-1] is the integer matrix of the arrow v -> v+1 with
    shape (dim_{v+1}, dim_v).
    """

    def __init__(self, n, spaces, maps):
        self.n = n
        self.spaces = spaces
        self.maps = maps
        for v in range(n - 1):
            rows = len(maps[v])
            cols = len(maps[v][0]) if maps[v] else 0
            if rows != len(spaces[v + 1]) or (rows and cols != len(spaces[v])):
                raise ValueError("map %d has shape (%d, %d), expected (%d, %d)"
                                 % (v + 1, rows, cols, len(spaces[v + 1]), len(spaces[v])))

    def dims(self):
        return tuple(len(s) for s in self.spaces)


def _zero_matrix(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _mat_mul(A, B, cols=None):
    # A: p x q, B: q x r.  cols supplies r when B has no rows (q = 0),
    # which happens whenever a composite passes through a zero space.
    p = len(A)
    q = len(B)
    r = len(B[0]) if B else (cols or 0)
    out = _zero_matrix(p, r)
    for i in range(p):
        Ai = A[i]
        for k in range(q):
            a = Ai[k]
            if a:
                Bk = B[k]
                oi = out[i]
                for j in range(r):
                    oi[j] += a * Bk[j]
    return out


def _identity(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def exact_rank(mat) -> int:
    """Rank over the rationals by fraction elimination; exact."""
    # imported on use, so importing the package loads neither fractions nor decimal
    from fractions import Fraction
    if not mat or not mat[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in mat]
    rows, cols = len(m), len(m[0])
    rank = 0
    pr = 0
    for pc in range(cols):
        pivot = None
        for r in range(pr, rows):
            if m[r][pc]:
                pivot = r
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        pv = m[pr][pc]
        for r in range(pr + 1, rows):
            if m[r][pc]:
                f = m[r][pc] / pv
                mr, mp = m[r], m[pr]
                for c in range(pc, cols):
                    mr[c] -= f * mp[c]
        pr += 1
        rank += 1
        if pr == rows:
            break
    return rank


def realize_matrices(rep: Representation) -> MatrixRealization:
    """Each segment copy contributes one identity chain of basis vectors."""
    n = rep.n
    spaces = [[] for _ in range(n)]
    instances = []
    for (i, j), m in rep.segments():
        for c in range(m):
            inst = len(instances)
            instances.append((i, j))
            for v in range(i, j + 1):
                spaces[v - 1].append((inst, v))
    maps = []
    for v in range(1, n):
        src, dst = spaces[v - 1], spaces[v]
        col_of = {tag: c for c, tag in enumerate(src)}
        row_of = {tag: r for r, tag in enumerate(dst)}
        mat = _zero_matrix(len(dst), len(src))
        for (inst, pos), c in col_of.items():
            i, j = instances[inst]
            if pos + 1 <= j:
                mat[row_of[(inst, pos + 1)]][c] = 1
        maps.append(mat)
    return MatrixRealization(n, spaces, maps)


def rank_seq_bruteforce(real: MatrixRealization) -> RankSequence:
    """Ranks of all composites, computed from the matrices alone."""
    n = real.n
    dims = real.dims()
    rows = []
    for i in range(1, n + 1):
        comp = _identity(dims[i - 1])
        row = [dims[i - 1]]
        for j in range(i + 1, n + 1):
            comp = _mat_mul(real.maps[j - 2], comp, cols=dims[i - 1])
            row.append(exact_rank(comp))
        rows.append(row)
    return RankSequence(n, rows)


def _intertwiner_matrix(M: Representation, N: Representation):
    """Matrix of g -> (g_{v+1} f_v - f'_v g_v), unknowns g_v: M_v -> N_v.

    Returns (matrix, n_unknowns).  Kernel dimension is hom(M, N); the
    cokernel dimension is ext(M, N), because the chain algebra has
    global dimension one.
    """
    if M.n != N.n:
        raise MismatchedQuiver("need modules on the same chain")
    n = M.n
    rm = realize_matrices(M)
    rn = realize_matrices(N)
    dM, dN = rm.dims(), rn.dims()
    offs = []
    total = 0
    for v in range(n):
        offs.append(total)
        total += dM[v] * dN[v]

    def var(v, a, b):
        # entry (a, b) of g_v : M_v -> N_v, a < dN[v], b < dM[v]
        return offs[v] + a * dM[v] + b

    rows = []
    for v in range(n - 1):
        fM = rm.maps[v]
        fN = rn.maps[v]
        for a in range(dN[v + 1]):
            for b in range(dM[v]):
                row = [0] * total
                # (g_{v+1} fM)_{a,b} = sum_c g_{v+1}[a,c] fM[c,b]
                for c in range(dM[v + 1]):
                    if fM[c][b]:
                        row[var(v + 1, a, c)] += fM[c][b]
                # (fN g_v)_{a,b} = sum_c fN[a,c] g_v[c,b]
                for c in range(dN[v]):
                    if fN[a][c]:
                        row[var(v, c, b)] -= fN[a][c]
                rows.append(row)
    return rows, total


def hom_dim_bruteforce(M: Representation, N: Representation) -> int:
    rows, total = _intertwiner_matrix(M, N)
    return total - exact_rank(rows)


def ext_dim_bruteforce(M: Representation, N: Representation) -> int:
    rows, total = _intertwiner_matrix(M, N)
    n_constraints = len(rows)
    return n_constraints - exact_rank(rows)


def realize_epsilon_form(erep) -> Tuple[MatrixRealization, Dict[int, list]]:
    """Matrices plus the pairing matrices B_v between vertex v and sigma(v).

    Dual segment copies get paired with signs (-1)^(position - start);
    lone self-dual copies (only legal in the non-split types) pair with
    themselves.  Verifies, entry by entry, the adjunction
    <f_v(x), y> + <x, f_{sigma(v)-1}(y)> = 0 and, in the split types,
    <f_{v, sigma(v)}(x), x> = 0 on basis vectors.  Raises NotEpsilon if
    the input is not a valid epsilon-module or a check fails.
    """
    rep, sym = erep.rep, erep.sym
    if not symdegen.is_epsilon_rep(rep, sym):
        raise NotEpsilon("input fails the multiplicity criterion")
    n, eps = rep.n, sym.epsilon
    real = realize_matrices(rep)

    # reconstruct instance tags in the same order realize_matrices made them
    instances = []
    for (i, j), m in rep.segments():
        for _ in range(m):
            instances.append((i, j))

    # pick one primary instance per dual pair; lone self-dual copies
    # (non-split types) are their own partner
    pairs = []  # (primary instance, partner instance)
    by_seg: Dict[Tuple[int, int], List[int]] = {}
    for inst, seg in enumerate(instances):
        by_seg.setdefault(seg, []).append(inst)
    for seg in sorted(by_seg):
        i, j = seg
        dseg = (sigma(j, n), sigma(i, n))
        if seg == dseg:
            insts = by_seg[seg]
            if sym.split:
                for a in range(0, len(insts), 2):
                    pairs.append((insts[a], insts[a + 1]))
            else:
                pairs.extend((inst, inst) for inst in insts)
        elif seg < dseg:
            pairs.extend(zip(by_seg[seg], by_seg[dseg]))

    index_at = [{tag: k for k, tag in enumerate(space)} for space in real.spaces]
    forms: Dict[int, list] = {
        v: _zero_matrix(len(real.spaces[v - 1]), len(real.spaces[sigma(v, n) - 1]))
        for v in range(1, n + 1)}
    for prim, part in pairs:
        i, j = instances[prim]
        for pos in range(i, j + 1):
            spos = sigma(pos, n)
            sign = (-1) ** (pos - i)
            forms[pos][index_at[pos - 1][(prim, pos)]][index_at[spos - 1][(part, spos)]] = sign
            if part != prim:
                # mirror side, forced by epsilon-symmetry of the pairing
                forms[spos][index_at[spos - 1][(part, spos)]][index_at[pos - 1][(prim, pos)]] = eps * sign

    _check_epsilon_form(real, forms, instances, sym)
    return real, forms


def _check_epsilon_form(real, forms, instances, sym):
    n = real.n
    eps = sym.epsilon
    # non-degeneracy and epsilon-symmetry: B_{sigma(v)} = eps * B_v^T
    for v in range(1, n + 1):
        sv = sigma(v, n)
        B, C = forms[v], forms[sv]
        dv, dsv = len(real.spaces[v - 1]), len(real.spaces[sv - 1])
        if dv != dsv and dv and dsv:
            raise NotEpsilon("paired spaces of different dimensions")
        if dv and exact_rank(B) != dv:
            raise NotEpsilon("degenerate pairing at vertex %d" % v)
        for a in range(dv):
            for b in range(dsv):
                if C[b][a] != eps * B[a][b]:
                    raise NotEpsilon("pairing not epsilon-symmetric at vertex %d" % v)
    # adjunction: <f_v x, y> = -<x, f_{sigma(v)-1} y> for x in M_v, y in M_{sigma(v)-1}
    for v in range(1, n):
        sv = sigma(v, n)          # = sigma(v+1) + 1
        fv = real.maps[v - 1]
        fsv = real.maps[sv - 2]   # arrow sigma(v)-1 -> sigma(v)
        Bv1 = forms[v + 1]        # pairs M_{v+1} with M_{sigma(v)-1}
        Bv = forms[v]             # pairs M_v with M_{sigma(v)}
        for b in range(len(real.spaces[v - 1])):
            for y in range(len(real.spaces[sv - 2])):
                lhs = sum(fv[a][b] * Bv1[a][y] for a in range(len(real.spaces[v])))
                rhs = sum(Bv[b][c] * fsv[c][y] for c in range(len(real.spaces[sv - 1])))
                if lhs + rhs != 0:
                    raise NotEpsilon("adjunction fails at arrow %d" % v)
    if sym.split:
        # composite from v to sigma(v) pairs every basis vector to zero with itself
        for v in range(1, n + 1):
            sv = sigma(v, n)
            if sv < v:
                continue
            comp = _identity(len(real.spaces[v - 1]))
            for w in range(v, sv):
                comp = _mat_mul(real.maps[w - 1], comp, cols=len(real.spaces[v - 1]))
            B = forms[sv]
            for b in range(len(real.spaces[v - 1])):
                val = sum(comp[a][b] * B[a][b] for a in range(len(real.spaces[sv - 1])))
                if val != 0:
                    raise NotEpsilon("isotropy fails for basis vector %d at vertex %d"
                                     % (b, v))


def closure_enumerate(rep, move_kind: str, max_total: int = 120):
    """All isomorphism classes reachable by moves, as a set of Representation.

    move_kind is "ORDINARY" (rep: Representation, single cuts/shifts) or
    "SYMMETRIC" (rep: EpsilonRep, paired moves).  BFS over multiplicity
    maps; the start point is included.  Guarded by the rank total of the
    start point: max_total is a non-negative int.  Raises ValueError for
    an unknown move_kind, a module of the wrong kind or a bad max_total.

    The moves come from the library's generators, and every edge is
    audited.  reached maps the rank rows of each module reached to that
    module: ranks_of is a pure function of the multiplicities, and a
    module is determined by its ranks.  An ORDINARY edge computes its
    predicted rows once (degen._predicted_rows) and looks them up.  A hit
    on a module with the child's multiplicities needs no new comparison:
    the key is that module's ranks_of table, so the child's table equals
    the prediction, and the edge is tallied in degen.AUDIT as applied and
    verified without rebuilding the table or hashing the child.  Every
    other edge runs ranks_of(child) and degen._audit, so ranks_of still
    runs once per distinct module, and a different module already holding
    the audited table raises AssertionError.  A SYMMETRIC edge audits
    both constituents, as symdegen._apply_sym_audited does, and is looked
    up by its audited rows in the same way.
    """
    if type(max_total) is not int or max_total < 0:
        raise ValueError("max_total must be a non-negative int, got %r" % (max_total,))
    if move_kind == "ORDINARY":
        if not isinstance(rep, Representation):
            raise ValueError("ORDINARY closures start from a Representation, got %r"
                             % (rep,))
        start = rep

        def expand(cur, before):
            # the children of cur not reached yet, each recorded in reached
            for move in degen.single_moves(cur):
                want = degen._predicted_rows(move, before)
                child = degen._applied(cur, move)
                held = reached.get(want)
                if held is not None and held.mult == child.mult:
                    degen.AUDIT["applied"] += 1
                    degen.AUDIT["verified"] += 1
                    continue
                after = core.ranks_of(child)
                degen._audit(move, want, after)
                if held is not None:
                    raise AssertionError("%r and %r have the same rank table"
                                         % (held, child))
                reached[want] = child
                yield child, after

    elif move_kind == "SYMMETRIC":
        if not isinstance(rep, symdegen.EpsilonRep):
            raise ValueError("SYMMETRIC closures start from an EpsilonRep, got %r"
                             % (rep,))
        start, sym = rep.rep, rep.sym

        def expand(cur, before):
            erep = symdegen.EpsilonRep(cur, sym)
            for move in symdegen.sym_moves(erep):
                child, after = symdegen._apply_sym_audited(erep, move, before)
                held = reached.get(after._rows)
                if held is None:
                    reached[after._rows] = child.rep
                    yield child.rep, after
                elif held.mult != child.rep.mult:
                    raise AssertionError("%r and %r have the same rank table"
                                         % (held, child.rep))

    else:
        raise ValueError("move_kind must be ORDINARY or SYMMETRIC")

    ranks = core.ranks_of(start)
    total = ranks.total()
    if total > max_total:
        raise InstanceTooLarge("rank total %d exceeds guard %d" % (total, max_total))
    reached = {ranks._rows: start}
    frontier = [(start, ranks)]
    while frontier:
        frontier = [new for cur, before in frontier for new in expand(cur, before)]
    return set(reached.values())
