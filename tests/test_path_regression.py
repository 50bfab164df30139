"""Pinned outputs of the two path builders on seeded pairs.

The digests were computed with the rank layer as it was before ranks
were carried through path building (O(n^2 |segments|) ranks_of, every
move applied twice).  Carrying ranks must not change a single move,
stage or rank table.  Pairs on which degeneration_path raises are pinned
by their error class; a fix of the generic-quotient defect changes those
entries, and only those.  The staircase rule in generic_quotient did so:
record 11 of ordinary_records(), "InsufficientMultiplicity" before, is now
a 13-move path, and no other record changed.
"""

import hashlib
import json
import random

from sympdeg.core import Representation, ranks_of, sigma
from sympdeg.degen import apply_move, degeneration_path, single_moves
from sympdeg.errors import SympdegError
from sympdeg.symdegen import (EpsilonRep, SymmetricType, apply_sym_move,
                              sym_degeneration_path, sym_moves)

ORDINARY_DIGEST = "bc5a86a2afa2973bf4fef809bb299e1112b0aa90ea22f7407a4d30d2577a8ee3"
SYMMETRIC_DIGEST = "147c2cd5312daf6f15fb6cdabe3dc5e0a1818a8ca9fb8af3ff13f6529439c849"


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _random_rep(rng, n, picks):
    mult = {}
    for _ in range(picks):
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        mult[(i, j)] = mult.get((i, j), 0) + 1
    return Representation(n, mult)


def ordinary_pairs():
    """Seeded pairs M >= N: N is a random walk of moves from M."""
    rng = random.Random(2405)
    for n in (6, 8, 10, 12, 16):
        for _ in range(8):
            M = _random_rep(rng, n, rng.randint(4, 10))
            N = M
            for _ in range(rng.randint(3, 8)):
                options = list(single_moves(N))
                if not options:
                    break
                N = apply_move(N, rng.choice(options))
            yield M, N


def symmetric_pairs():
    """Seeded epsilon pairs M >= N in split types: N is a random walk of
    paired moves from M."""
    rng = random.Random(2739)
    for n, eps in ((5, -1), (6, 1), (7, -1), (9, -1), (10, 1)):
        sym = SymmetricType(n, eps)
        for _ in range(6):
            mult = {}
            for _ in range(rng.randint(2, 5)):
                i = rng.randint(1, n)
                j = rng.randint(i, n)
                for seg in ((i, j), (sigma(j, n), sigma(i, n))):
                    mult[seg] = mult.get(seg, 0) + 1
            M = EpsilonRep(Representation(n, mult), sym)
            N = M
            for _ in range(rng.randint(2, 5)):
                options = list(sym_moves(N))
                rng.shuffle(options)
                if options:
                    N = apply_sym_move(N, options[0])
            yield M, N


def ordinary_records():
    out = []
    for M, N in ordinary_pairs():
        try:
            path = degeneration_path(M, N)
        except SympdegError as exc:
            result = type(exc).__name__
        else:
            result = [[list(move), sorted(stage.mult.items())] for move, stage in path]
        out.append([M.n, sorted(M.mult.items()), sorted(N.mult.items()), result])
    return out


def symmetric_records():
    out = []
    for M, N in symmetric_pairs():
        steps = sym_degeneration_path(M, N)
        out.append([M.rep.n, sorted(M.rep.mult.items()), sorted(N.rep.mult.items()),
                    [[sorted(step.Z.rep.mult.items()), step.L, step.support_interval,
                      step.m_ranks.rows(), step.n_ranks.rows(), ranks_of(step.Z.rep).rows()]
                     for step in steps]])
    return out


def test_ordinary_paths_unchanged():
    assert _digest(ordinary_records()) == ORDINARY_DIGEST


def test_symmetric_paths_unchanged():
    assert _digest(symmetric_records()) == SYMMETRIC_DIGEST
