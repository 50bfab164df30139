"""No in-process layer leaves a reference cycle behind (the fixed-point
enumeration has its own test in test_pbw.py).

Cyclic garbage lives until the next full collection, so it raises peak
memory and adds collector time to whatever runs next.  Each call runs
once to warm lazy state (imports, per-n tables), then again with the
collector off; a collection afterwards must find nothing unreachable.
"""

import gc
import random

from sympdeg import oracle
from sympdeg.core import Representation, sigma
from sympdeg.degen import apply_move, degeneration_path, single_moves
from sympdeg.pbw import (
    PbwSubset, build_Mi, check_lemma_ui, dynkin_face_violations,
    find_interior_point, u_iprime_word, w_i_word, zero_root_vector,
)
from sympdeg.symdegen import (
    EpsilonRep, SymmetricType, apply_sym_move, sym_degeneration_path,
    sym_move_refinement, sym_moves,
)


def _cyclic_garbage(call):
    """How many unreachable objects a second call of call() leaves."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def _walk(rng, start, moves, apply, steps):
    cur = start
    for _ in range(steps):
        options = list(moves(cur))
        if not options:
            break
        cur = apply(cur, rng.choice(options))
    return cur


def test_layers_leave_no_cyclic_garbage():
    rng = random.Random(4)
    M = Representation(4, {(1, 4): 2, (2, 3): 1, (1, 2): 1})
    N = _walk(rng, M, single_moves, apply_move, 4)
    sym = SymmetricType(4, 1)
    mult = {}
    for i, j in ((1, 3), (2, 4), (1, 1)):
        for seg in ((i, j), (sigma(j, 4), sigma(i, 4))):
            mult[seg] = mult.get(seg, 0) + 1
    EM = EpsilonRep(Representation(4, mult), sym)
    EN = _walk(rng, EM, sym_moves, apply_sym_move, 4)
    assert N != M and EN != EM
    subset = PbwSubset.make(5, (1, 3))
    zero = zero_root_vector(5)
    calls = {
        "degeneration_path": lambda: degeneration_path(M, N),
        "sym_degeneration_path": lambda: sym_degeneration_path(EM, EN),
        "sym_move_refinement": lambda: sym_move_refinement(EM, EN),
        "closure_enumerate": lambda: oracle.closure_enumerate(M, "ORDINARY"),
        "build_Mi": lambda: build_Mi(subset),
        "w_i_word": lambda: w_i_word(subset),
        "u_iprime_word": lambda: u_iprime_word(subset),
        "find_interior_point": lambda: find_interior_point(subset),
        "dynkin_face_violations": lambda: dynkin_face_violations(subset, zero),
        "check_lemma_ui": lambda: check_lemma_ui(subset),
    }
    leaks = {name: _cyclic_garbage(call) for name, call in calls.items()}
    assert leaks == {name: 0 for name in calls}
