"""Seeded inputs and independent expected values for the benchmark.

Nothing here imports sympdeg.  Modules are plain dicts {(i, j): m} of
segments U[i,j] on the chain 1..n; moves are applied by this file's own
code, and every expected value (rank tables, closure sets, fixed-point
counts, reducedness, face constraints) is computed from the definitions
in the package documentation rather than by the package.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

# --- modules and ranks --------------------------------------------------------


def sigma(v, n):
    return n + 1 - v


def ranks(n, mult):
    """Rank table rows[i-1][j-i] = sum of m[k,l] with k <= i and j <= l."""
    grid = [[0] * (n + 2) for _ in range(n + 2)]
    for (k, l), m in mult.items():
        grid[k][l] += m
    # suffix over l, then prefix over k
    for k in range(1, n + 1):
        row = grid[k]
        for l in range(n - 1, 0, -1):
            row[l] += row[l + 1]
    for k in range(2, n + 1):
        prev, row = grid[k - 1], grid[k]
        for l in range(1, n + 1):
            row[l] += prev[l]
    return tuple(tuple(grid[i][i:n + 1]) for i in range(1, n + 1))


def dominates(a, b):
    return all(x >= y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def dims(n, mult):
    d = [0] * n
    for (i, j), m in mult.items():
        for v in range(i, j + 1):
            d[v - 1] += m
    return tuple(d)


def random_module(rng, n, segments):
    mult = {}
    for _ in range(segments):
        i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
        mult[(i, j)] = mult.get((i, j), 0) + 1
    return mult


# --- ordinary cut/shift moves on dicts -----------------------------------------

def _take(mult, seg):
    have = mult.get(seg, 0)
    if have < 1:
        return False
    if have == 1:
        del mult[seg]
    else:
        mult[seg] = have - 1
    return True


def _put(mult, seg):
    mult[seg] = mult.get(seg, 0) + 1


def apply_move(mult, move):
    """Apply ("cut", t, s, q) or ("shift", t, s, q, r); None if inapplicable."""
    out = dict(mult)
    kind, t, s, q = move[:4]
    if kind == "cut":
        if not (t < q <= s and _take(out, (t, s))):
            return None
        _put(out, (t, q - 1))
        _put(out, (q, s))
    else:
        r = move[4]
        if not (t < q <= r < s and _take(out, (t, s)) and _take(out, (q, r))):
            return None
        _put(out, (t, r))
        _put(out, (q, s))
    return out


def moves_from(mult):
    segs = sorted(mult)
    out = [("cut", t, s, q) for (t, s) in segs for q in range(t + 1, s + 1)]
    out += [("shift", t, s, q, r) for (t, s) in segs for (q, r) in segs
            if t < q <= r < s]
    return out


def random_descendant(rng, mult, steps):
    cur = dict(mult)
    for _ in range(steps):
        options = moves_from(cur)
        if not options:
            break
        cur = apply_move(cur, rng.choice(options))
    return cur


# --- paired (symmetric) moves ---------------------------------------------------

def is_epsilon(n, mult):
    """Reflection-invariant with even multiplicity on self-dual segments
    (the split-type condition)."""
    for (i, j), m in mult.items():
        mirror = (sigma(j, n), sigma(i, n))
        if mult.get(mirror, 0) != m:
            return False
        if mirror == (i, j) and m % 2:
            return False
    return True


def random_epsilon_module(rng, n, pairs):
    mult = {}
    for _ in range(pairs):
        i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
        for seg in ((i, j), (sigma(j, n), sigma(i, n))):
            mult[seg] = mult.get(seg, 0) + 1
    return mult


def expand_sym_move(move, n):
    kind, t, s, q = move[:4]
    if kind == "symcut":
        return (("cut", t, s, q + 1),
                ("cut", sigma(s, n), sigma(t, n), sigma(q, n)))
    r = move[4]
    return (("shift", t, s, q, r),
            ("shift", sigma(s, n), sigma(t, n), sigma(r, n), sigma(q, n)))


def apply_sym_move(n, mult, move):
    out = mult
    for half in expand_sym_move(move, n):
        out = apply_move(out, half)
        if out is None:
            return None
    return out if is_epsilon(n, out) else None


def sym_moves_from(mult):
    segs = sorted(mult)
    out = [("symcut", t, s, q) for (t, s) in segs for q in range(t, s)]
    out += [("symshift", t, s, q, r) for (t, s) in segs for (q, r) in segs
            if t < q <= r < s]
    return out


def random_sym_descendant(rng, n, mult, steps):
    cur = dict(mult)
    for _ in range(steps):
        options = sym_moves_from(cur)
        rng.shuffle(options)
        child = next((c for c in (apply_sym_move(n, cur, mv) for mv in options)
                      if c is not None), None)
        if child is None:
            break
        cur = child
    return cur


# --- closures: every module with the same dims that the start dominates --------

def modules_with_dims(d):
    n = len(d)
    segments = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    found = []
    acc = {}
    remaining = list(d)

    def descend(index):
        if index == len(segments):
            if not any(remaining):
                found.append(dict(acc))
            return
        i, j = segments[index]
        cap = min(remaining[i - 1:j])
        for count in range(cap + 1):
            if count:
                acc[(i, j)] = count
                for v in range(i - 1, j):
                    remaining[v] -= count
            # vertex i is finished once every segment starting at i is placed
            if not (j == n and remaining[i - 1]):
                descend(index + 1)
            if count:
                for v in range(i - 1, j):
                    remaining[v] += count
                del acc[(i, j)]

    descend(0)
    return found


def closure(n, mult, pool=None):
    """Frozen multiplicity maps of every degeneration of mult; pool is
    modules_with_dims(dims(n, mult)) if the caller has it already."""
    top = ranks(n, mult)
    if pool is None:
        pool = modules_with_dims(dims(n, mult))
    return {frozenset(m.items()) for m in pool if dominates(top, ranks(n, m))}


# --- Weyl words -----------------------------------------------------------------

def is_reduced(kind, m, letters):
    """Reduced iff every letter is an ascent of the prefix it extends.

    Letters act on positions of the one-line image, left to right; a < m
    swaps positions a and a+1, and in type C the letter m negates
    position m.  Right multiplication by s_a raises the length exactly
    when the prefix sends the simple root a to a positive root (first
    nonzero coordinate positive).
    """
    images = list(range(1, m + 1))
    for a in letters:
        if kind == "C" and a == m:
            if images[m - 1] < 0:
                return False
            images[m - 1] = -images[m - 1]
            continue
        x, y = images[a - 1], images[a]
        vec = {}
        for value, sign in ((x, 1), (y, -1)):
            key = abs(value)
            vec[key] = vec.get(key, 0) + (sign if value > 0 else -sign)
        first = next(vec[k] for k in sorted(vec) if vec[k])
        if first < 0:
            return False
        images[a - 1], images[a] = y, x
    return True


# --- loci -----------------------------------------------------------------------

def locus_module(n, subset):
    """F + reflection of F on 2n-1 vertices: n - t full segments and,
    per chosen k, the final segments starting at sigma(k) and k + 1."""
    N = 2 * n - 1
    halves = [(1, N)] * (n - len(subset))
    for k in subset:
        halves += [(sigma(k, N), N), (k + 1, N)]
    mult = {}
    for a, b in halves:
        for seg in ((a, b), (sigma(b, N), sigma(a, N))):
            mult[seg] = mult.get(seg, 0) + 1
    return mult


def _root(key, n):
    """Vector of the positive root named ("u", i, j) or ("b", i, j)."""
    kind, i, j = key
    v = [0] * (n + 1)
    v[i] += 1
    if kind == "u" and j < n:
        v[j + 1] -= 1
    elif kind == "u":
        v[n] += 1
    else:
        v[j] += 1
    return tuple(v[1:])


def root_keys(n):
    return ([("u", i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            + [("b", i, j) for i in range(1, n) for j in range(i, n)])


@lru_cache(maxsize=None)
def pair_constraints(n):
    """(beta1, beta2, sum, wall) for every pair of positive roots summing to
    a root through a cancelled coordinate: beta1 = e_a - e_b, beta2 has a
    positive e_b coordinate, and the junction wall is b - 1."""
    keys = root_keys(n)
    by_vec = {_root(k, n): k for k in keys}
    out = []
    for k1 in keys:
        v1 = _root(k1, n)
        neg = [c for c, x in enumerate(v1) if x < 0]
        if len(neg) != 1:
            continue
        b = neg[0] + 1
        for k2 in keys:
            v2 = _root(k2, n)
            if v2[b - 1] <= 0:
                continue
            total = tuple(x + y for x, y in zip(v1, v2))
            if total in by_vec:
                out.append((k1, k2, by_vec[total], b - 1))
    return tuple(out)


def strictly_inside_pairs(n, subset, entries):
    """Pair constraints strict at chosen walls and exact elsewhere."""
    for k1, k2, k3, wall in pair_constraints(n):
        lhs = entries[k1] + entries[k2]
        if (lhs <= entries[k3]) if wall in subset else (lhs != entries[k3]):
            return False
    return True


def chosen_wall_pairs(n, subset):
    """How many pair constraints sit at a chosen wall."""
    return sum(1 for c in pair_constraints(n) if c[3] in subset)


@lru_cache(maxsize=None)
def _chains_below(k, members, chosen):
    """Number of ways to pick S_{k-1} > ... > S_1 under S_k = members."""
    if k == 1:
        return 1
    pool = set(members) | ({k} if (k - 1) in chosen else set())
    return sum(_chains_below(k - 1, sub, chosen)
               for sub in itertools.combinations(sorted(pool), k - 1))


def fixed_point_count(n, subset):
    """Fixed flags: a pairing-free middle n-subset of 1..2n, then each
    member k drops to a (k-1)-subset of itself, plus element k when the
    wall k - 1 is chosen."""
    chosen = frozenset(subset)
    return sum(_chains_below(n, mid, chosen)
               for mid in itertools.combinations(range(1, 2 * n + 1), n)
               if not any(2 * n + 1 - x in mid for x in mid))


def random_subset(rng, n):
    return tuple(k for k in range(1, n) if rng.random() < 0.5)


def all_subsets(n):
    return [tuple(c) for size in range(n) for c in
            itertools.combinations(range(1, n), size)]


def make_rng(seed, salt):
    return random.Random("%s/%s" % (seed, salt))
