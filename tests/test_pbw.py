import collections
import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

import sympdeg
from sympdeg import pbw
from sympdeg.core import dim_vector
from sympdeg.coxeter import evaluate, is_reduced
from sympdeg.pbw import (
    CRootVector, FixedPoint, PbwSubset, _check_fixed_point,
    build_Mi, canonical_root_keys,
    check_lemma_ui, count_lagrangian_fixed_points, dynkin_face_contains,
    dynkin_face_violations, ell_sequence, find_interior_point,
    fixed_point_chain, h_sequence, iprime, lagrangian_fixed_points,
    sigma_i_map, theta, u_iprime_word, w_i_word, zero_root_vector,
)

FACE_VIOLATIONS_DIGEST = "8115a810284f6f3b1ab75b0ac2f88c4743b80598ff08e2547e500cb97af7572a"
FIXED_POINTS_DIGEST = "9abda2020c4ffe0d0bcb85bbcfbe80a1a2857b99d7451284bac089555fcd5d8f"
FIXED_POINTS_N6_DIGEST = "bff18dcae309545cdaaedb87b7533db2f7e66f0edf385774a46a3acc5c7b6d83"


def _all_subsets(n):
    for r in range(n):
        for combo in itertools.combinations(range(1, n), r):
            yield PbwSubset.make(n, combo)


def test_subset_validation():
    s = PbwSubset.make(3, [2, 1])
    assert s.i == (1, 2) and s.t == 2
    with pytest.raises(ValueError):
        PbwSubset.make(3, [3])
    with pytest.raises(ValueError):
        PbwSubset.make(0, [])


@pytest.mark.parametrize("n, i", [
    (3, [True]), (True, ()), (2.5, ()), (3.0, [1]),
    # the types are checked before the entries are deduplicated
    (3, [1, 1.0]), (3, [1.0, 1]),
])
def test_subset_rejects_bools_and_non_integers(n, i):
    """A bool would count as wall 1 and print as true in JSON, and a float
    n would fail later, inside the count."""
    with pytest.raises(ValueError):
        PbwSubset.make(n, i)


def test_build_module_anchor():
    s = PbwSubset.make(3, [1])
    erep, e = build_Mi(s)
    assert dict(erep.rep.mult) == {(1, 5): 4, (5, 5): 1, (1, 1): 1,
                                   (2, 5): 1, (1, 4): 1}
    assert dim_vector(erep.rep) == (6, 6, 6, 6, 6)
    assert e == (1, 2, 3, 4, 5)
    assert erep.sym.epsilon == -1 and erep.sym.split


def test_build_module_dims_constant():
    # the construction always fills every vertex to dimension 2n
    for n in range(1, 5):
        for s in _all_subsets(n):
            erep, _ = build_Mi(s)
            assert dim_vector(erep.rep) == (2 * n,) * (2 * n - 1)


def test_index_sequences_anchor():
    s = PbwSubset.make(3, [1])
    assert sigma_i_map(s) == (1, 3, 4)
    assert iprime(s) == (1, 4)
    assert ell_sequence(s) == (1, 3, 4, 6, 7, 8)
    assert h_sequence(s) == (0, 1, 1, 2, 2, 2)
    assert theta(s) == (1, 3, 4, 6, 7)


def test_index_sequences_empty_subset():
    s = PbwSubset.make(3, [])
    assert sigma_i_map(s) == (1, 2, 3)
    assert iprime(s) == ()
    assert ell_sequence(s) == (1, 2, 3, 4, 5, 6)
    assert h_sequence(s) == (0,) * 6


def test_word_anchors():
    s = PbwSubset.make(3, [1])
    w = w_i_word(s)
    assert (w.kind, w.m) == ("C", 4)
    assert list(w.letters) == [4, 3, 4, 2, 3, 4, 1]
    assert evaluate(w).images == (-4, 1, -3, -2)
    u = u_iprime_word(s)
    assert (u.kind, u.m) == ("A", 8)
    assert list(u.letters) == [3, 4, 5, 6, 7, 2, 3, 4, 5, 2, 3, 4, 2, 3, 1]
    assert evaluate(u).images == (6, 1, 7, 5, 4, 2, 8, 3)


def test_word_anchor_empty_subset():
    s = PbwSubset.make(2, [])
    assert list(w_i_word(s).letters) == [2, 1, 2]
    assert evaluate(w_i_word(s)).images == (-2, -1)


def test_words_reduced():
    for n in range(1, 6):
        for s in _all_subsets(n):
            assert is_reduced(w_i_word(s))
            assert is_reduced(u_iprime_word(s))


def test_lemma_report_anchor():
    s = PbwSubset.make(3, [1])
    report = check_lemma_ui(s)
    rows = report["rows"]
    assert [r["clause"] for r in rows] == [1, 2, 1, 2, 1, 1]
    assert [r["predicted"] for r in rows if r["clause"] == 1] == \
        [(8,), (7,), (6,), (5,)]
    assert [r["actual"] for r in rows if r["clause"] == 1] == \
        [(6,), (5,), (8,), (3,)]
    # the first half of the j=2 prediction does hold
    assert rows[1]["predicted"][0] == rows[1]["actual"][0] == 1
    assert rows[1]["range_anomaly"] and rows[3]["range_anomaly"]
    assert report["summary"]["range_anomalies"] == 2
    assert report["summary"]["rows"] == 6


def test_lemma_report_deterministic_and_total():
    for n in range(1, 5):
        for s in _all_subsets(n):
            first = check_lemma_ui(s)
            second = check_lemma_ui(s)
            assert first == second
            assert len(first["rows"]) == 2 * n
            # every second-clause row is flagged: the high prediction
            # escapes the symbol range whenever h is positive there
            for row in first["rows"]:
                if row["clause"] == 2:
                    assert row["range_anomaly"]


def test_canonical_root_keys():
    assert len(canonical_root_keys(4)) == 16
    assert ("u", 2, 4) in canonical_root_keys(4)
    assert ("b", 1, 3) in canonical_root_keys(4)


def test_root_vector_validation():
    with pytest.raises(ValueError):
        CRootVector(2, {("u", 1, 1): 0})
    entries = {key: 0 for key in canonical_root_keys(2)}
    entries[("b", 9, 9)] = 0
    with pytest.raises(ValueError):
        CRootVector(2, entries)
    good = zero_root_vector(2)
    with pytest.raises(AttributeError):
        good.n = 3


def test_root_vector_rejects_bools_and_non_integers():
    entries = {key: 0 for key in canonical_root_keys(1)}
    assert CRootVector(1, entries).n == 1
    for n in (True, 1.0, 0):
        with pytest.raises(ValueError, match="need an integer n >= 1"):
            CRootVector(n, entries)
    for value in (True, False, 0.0):
        with pytest.raises(ValueError, match="is not an integer"):
            CRootVector(1, {key: value for key in entries})


def test_zero_vector_membership():
    for n in range(1, 5):
        for s in _all_subsets(n):
            z = zero_root_vector(n)
            assert dynkin_face_contains(s, z)
            assert dynkin_face_contains(s, z, strict=True) == (s.t == 0)


def test_interior_point_anchor_rank_two():
    d = find_interior_point(PbwSubset.make(2, [1]))
    assert d.d(("u", 1, 1)) == 0
    assert d.d(("u", 1, 2)) == -1
    assert d.d(("u", 2, 2)) == 0
    assert d.d(("b", 1, 1)) == -2


def test_interior_point_anchor_rank_three():
    d = find_interior_point(PbwSubset.make(3, [1]))
    assert d.d(("u", 2, 2)) == 0
    assert d.d(("u", 1, 2)) == -1
    assert d.d(("u", 2, 3)) == 0
    assert d.d(("u", 1, 1)) == 0


def test_interior_points_strict():
    for n in range(1, 5):
        for s in _all_subsets(n):
            d = find_interior_point(s)
            assert dynkin_face_contains(s, d, strict=True)
            assert not dynkin_face_violations(s, d, strict=True)


def test_violations_report():
    s = PbwSubset.make(3, [1])
    entries = dict(find_interior_point(s).items())
    entries[("u", 1, 3)] += 5
    bad = CRootVector(3, entries)
    rows = dynkin_face_violations(s, bad)
    assert rows
    for row in rows:
        assert row["family"] in {"bullet1", "bullet2", "bullet3",
                                 "b4", "b5", "b6"}
        assert row["lhs"] != row["rhs"] or row["relation"] != "=="
    assert not dynkin_face_contains(s, bad)


def test_mismatched_rank_rejected():
    with pytest.raises(ValueError):
        dynkin_face_contains(PbwSubset.make(3, [1]), zero_root_vector(2))


# --- fixed points -------------------------------------------------------------

def _brute_fixed_points(subset):
    """Independent enumeration: build raw subset chains over all 2n-1
    positions, constrained only by the degenerate inclusion steps, then
    filter by the pairing duality."""
    n = subset.n
    degenerate = set(iprime(subset))
    ground = range(1, 2 * n + 1)

    def extend(chains, v):
        out = []
        for chain in chains:
            prev = chain[-1] if chain else ()
            for cand in itertools.combinations(ground, v):
                src = set(prev) - ({v} if (v - 1) in degenerate else set())
                if src <= set(cand):
                    out.append(chain + (cand,))
        return out

    chains = [()]
    for v in range(1, 2 * n):
        chains = extend(chains, v)

    def dual(s):
        kill = {2 * n + 1 - j for j in s}
        return tuple(x for x in ground if x not in kill)

    result = set()
    for chain in chains:
        if all(chain[2 * n - k - 1] == dual(chain[k - 1])
               for k in range(1, n + 1)):
            result.add(chain[:n])
    return result


def _recursive_count(subset):
    """The chains counted by a recursion over (k, S_k) down from the middle
    members, memoised per S_k: exponential in n, kept as a reference."""
    chosen = set(subset.i)
    below = {(): 1}

    def count(sk):
        if sk not in below:
            below[sk] = sum(map(count, pbw._members_below(sk, chosen)))
        return below[sk]

    return sum(map(count, pbw._middle_members(subset.n)))


def test_fixed_point_counts_no_degeneration():
    for n in range(1, 5):
        points = lagrangian_fixed_points(PbwSubset.make(n, []))
        assert len(points) == 2 ** n * math.factorial(n)
    for n in range(1, 61):
        assert count_lagrangian_fixed_points(PbwSubset.make(n, [])) == \
            2 ** n * math.factorial(n)


def test_fixed_point_count_matches_recursion():
    """The O(n^2) recurrence against the recursion over every member, on
    every subset with n <= 7."""
    for n in range(1, 8):
        for s in _all_subsets(n):
            assert count_lagrangian_fixed_points(s) == _recursive_count(s), (n, s.i)


def test_fixed_point_count_large_n():
    assert count_lagrangian_fixed_points(PbwSubset.make(12, range(1, 12))) == \
        309_483_997_093_321_210
    start = time.perf_counter()
    count = count_lagrangian_fixed_points(PbwSubset.make(200, range(1, 200)))
    assert time.perf_counter() - start < 1
    assert count > 2 ** 200 * math.factorial(200)


def test_package_exports():
    assert "count_lagrangian_fixed_points" in sympdeg.__all__
    assert all(hasattr(sympdeg, name) for name in sympdeg.__all__)


def test_fixed_point_chain_duality():
    s = PbwSubset.make(2, [1])
    for fp in lagrangian_fixed_points(s):
        chain = fixed_point_chain(fp)
        assert len(chain) == 3
        assert chain[1] == fp.subsets[1]


def test_fixed_points_match_brute():
    for n in (1, 2, 3):
        for s in _all_subsets(n):
            got = {fp.subsets for fp in lagrangian_fixed_points(s)}
            want = _brute_fixed_points(s)
            assert got == want, (n, s.i)
            assert count_lagrangian_fixed_points(s) == len(want), (n, s.i)


def test_fixed_points_pinned():
    """Every point and its place in the list, for every subset with n <= 5,
    as enumerated before the chains below each member were shared.  Each
    point is a FixedPoint itself, storing a tuple of tuples."""
    digest = hashlib.sha256()
    for n in range(1, 6):
        for s in _all_subsets(n):
            found = lagrangian_fixed_points(s)
            for fp in found:
                assert type(fp) is FixedPoint and fp.n == n, (n, s.i)
                assert type(fp.subsets) is tuple, (n, s.i)
                assert all(type(member) is tuple for member in fp.subsets), (n, s.i)
            points = [list(map(list, fp.subsets)) for fp in found]
            assert count_lagrangian_fixed_points(s) == len(points), (n, s.i)
            digest.update(json.dumps([n, list(s.i), points]).encode())
    assert digest.hexdigest() == FIXED_POINTS_DIGEST


def test_fixed_point_count_n6():
    assert len(lagrangian_fixed_points(PbwSubset.make(6, []))) == 2 ** 6 * math.factorial(6)


def test_fixed_points_emitted_in_order_n6():
    """Joining each sorted prefix of the lower half to each entry of its
    member's sorted tail list keeps the chains in lexicographic order:
    the list is strictly increasing without a sort, with one entry per
    counted point."""
    for i in ((), (1,), (3,), (2, 5)):
        s = PbwSubset.make(6, i)
        points = lagrangian_fixed_points(s)
        assert len(points) == count_lagrangian_fixed_points(s), i
        assert all(a < b for a, b in zip(points, points[1:])), i


def test_fixed_points_pinned_n6():
    """Every point and its place in the list for four subsets of n = 6
    (387,840 points), pinned before the points were wrapped in one C-level
    pass; a seeded sample of them passes the per-point self-check."""
    rng = random.Random(6)
    digest = hashlib.sha256()
    for i in ((), (1,), (3,), (2, 5)):
        s = PbwSubset.make(6, i)
        found = lagrangian_fixed_points(s)
        for fp in rng.sample(found, 200):
            assert type(fp) is FixedPoint
            _check_fixed_point(fp, s)
        points = [list(map(list, fp.subsets)) for fp in found]
        digest.update(json.dumps([6, list(s.i), points]).encode())
    assert digest.hexdigest() == FIXED_POINTS_N6_DIGEST


def _reference_fixed_points(subset):
    """The level-by-level chain build the enumeration used before its
    chains met in the middle: the member graph from the middle members
    down, then every prefix S_1, ..., S_k extended by each member above
    S_k, in sorted order, up to the full chains."""
    n, chosen = subset.n, set(subset.i)
    level = list(pbw._middle_members(n))
    above = {}
    for _ in range(n):
        below = {}
        for hi in level:
            for lo in pbw._members_below(hi, chosen):
                below.setdefault(lo, []).append((hi,))
        above.update(below)
        level = sorted(below)
    chains = above[()]
    for _ in range(n - 1):
        chains = [c + up for c in chains for up in above[c[-1]]]
    return [FixedPoint(n, chain) for chain in chains]


def test_fixed_points_match_reference_builder():
    """Prefixes of the lower half joined to the shared tails of the upper
    half give the level-by-level build's list, point for point and in
    its order: every subset with n <= 5, and the n = 6 subsets with at
    most one wall."""
    subsets = [s for n in range(1, 6) for s in _all_subsets(n)]
    subsets += [PbwSubset.make(6, i) for i in [()] + [(wall,) for wall in range(1, 6)]]
    for s in subsets:
        assert lagrangian_fixed_points(s) == _reference_fixed_points(s), s


def _reference_member_sets(member, n):
    """(set of the member, set of its dual), from the definition."""
    return (frozenset(member),
            frozenset(x for x in range(1, 2 * n + 1) if 2 * n + 1 - x not in member))


def test_member_table_kept_across_calls():
    """From an empty table, every subset with n <= 5, in ascending and
    then in descending order, gives the reference builder's list.  The
    first pass fills one table per n, whose entries are the definition's
    frozensets; the second pass adds no entry."""
    subsets = [s for n in range(1, 6) for s in _all_subsets(n)]
    pbw._member_table.cache_clear()
    for s in subsets:
        assert lagrangian_fixed_points(s) == _reference_fixed_points(s), s
    tables = {n: pbw._member_table(n) for n in range(1, 6)}
    sizes = {n: len(table) for n, table in tables.items()}
    for s in reversed(subsets):
        assert lagrangian_fixed_points(s) == _reference_fixed_points(s), s
    assert all(pbw._member_table(n) is table for n, table in tables.items())
    assert {n: len(table) for n, table in tables.items()} == sizes
    for n, table in tables.items():
        # the middle members and () are members at every n
        assert set(pbw._middle_members(n)) | {()} <= set(table)
        for member, entry in table.items():
            assert type(entry) is tuple and list(map(type, entry)) == [frozenset] * 2
            assert entry == _reference_member_sets(member, n), (n, member)


def test_member_table_same_list_cold_and_warm():
    """A call on an empty table and a call on a full one return equal
    lists, for every subset at n = 4."""
    for s in _all_subsets(4):
        pbw._member_table.cache_clear()
        cold = lagrangian_fixed_points(s)
        assert lagrangian_fixed_points(s) == cold, s


def _reference_middle_members(n):
    """The definition: the n-subsets of 1..2n holding no pair {j, 2n+1-j}."""
    return [sn for sn in itertools.combinations(range(1, 2 * n + 1), n)
            if not any(2 * n + 1 - j in sn for j in sn)]


def test_middle_members_match_definition():
    for n in range(1, 9):
        members = list(pbw._middle_members(n))
        assert members == _reference_middle_members(n), n
        assert len(members) == 2 ** n


def test_fixed_points_leave_no_cyclic_garbage():
    """The enumeration holds no reference cycle, so the graph and the
    chains are freed when the call returns, not at the next full
    collection."""
    s = PbwSubset.make(5, range(1, 5))
    gc.collect()
    gc.disable()
    try:
        points = lagrangian_fixed_points(s)
        assert len(points) == count_lagrangian_fixed_points(s)
        del points
        assert gc.collect() == 0
    finally:
        gc.enable()


def _record_collector(monkeypatch, fail_at=None):
    """Make _members_below note the collector's state on each call, and
    raise on call number fail_at; returns the list of states."""
    real, seen = pbw._members_below, []

    def members_below(sk, chosen):
        seen.append(gc.isenabled())
        if len(seen) == fail_at:
            raise RuntimeError("stop the enumeration")
        return real(sk, chosen)

    monkeypatch.setattr(pbw, "_members_below", members_below)
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_fixed_points_restore_collector_state(monkeypatch, enabled):
    """The build runs with the collector off, and the call leaves it as
    it found it: on stays on, off stays off."""
    s = PbwSubset.make(4, (1, 3))
    want = lagrangian_fixed_points(s)
    seen = _record_collector(monkeypatch)
    (gc.enable if enabled else gc.disable)()
    try:
        assert lagrangian_fixed_points(s) == want
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen and not any(seen)


def test_fixed_points_run_no_collection():
    """No collection starts inside the call: the pause covers the whole
    build, and nothing is allocated after the collector is back on."""
    starts = []

    def callback(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        points = lagrangian_fixed_points(PbwSubset.make(5, ()))
        during = len(starts)
    finally:
        gc.callbacks.remove(callback)
    assert during == 0
    assert len(points) == 2 ** 5 * math.factorial(5)


def test_collector_pause_allocates_nothing_once_switched_on():
    """Leaving a pause allocates nothing after the collector is back on,
    so the collection that the block's 5,000 live tuples make due starts
    at the caller's next allocation, not inside __exit__."""
    frames = []

    def callback(phase, info):
        if phase == "start":
            frames.append(sys._getframe(1).f_code.co_name)

    gc.collect()
    assert gc.isenabled()
    gc.callbacks.append(callback)
    try:
        with pbw._collector_paused():
            kept = [(j, j, j) for j in range(5000)]
        after = [(j, j, j) for j in range(10)]
    finally:
        gc.callbacks.remove(callback)
    assert len(kept) == 5000 and len(after) == 10
    assert frames and "__exit__" not in frames, frames


def test_fixed_points_restore_collector_on_error(monkeypatch):
    """An enumeration that raises part-way through still turns the
    collector back on."""
    seen = _record_collector(monkeypatch, fail_at=3)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="stop the enumeration"):
        lagrangian_fixed_points(PbwSubset.make(4, ()))
    assert seen == [False] * 3
    assert gc.isenabled()


def test_overlapping_calls_keep_collector_off(monkeypatch):
    """Two calls in two threads whose builds overlap: the collector stays
    off until the later call ends, and is on again after both."""
    real = pbw._members_below
    first_in, second_in, first_done = (threading.Event() for _ in range(3))
    seen = []

    def members_below(sk, chosen):
        name = threading.current_thread().name
        if name == "first" and not first_in.is_set():
            first_in.set()
            second_in.wait(10)
        elif name == "second" and not second_in.is_set():
            second_in.set()
            first_done.wait(10)
            seen.append(gc.isenabled())
        return real(sk, chosen)

    monkeypatch.setattr(pbw, "_members_below", members_below)
    s = PbwSubset.make(3, (1,))
    first = threading.Thread(name="first", target=lagrangian_fixed_points, args=(s,))
    second = threading.Thread(name="second", target=lagrangian_fixed_points, args=(s,))
    first.start()
    assert first_in.wait(10)
    second.start()
    first.join(10)
    assert not first.is_alive()
    first_done.set()
    second.join(10)
    assert not second.is_alive()
    assert seen == [False]
    assert gc.isenabled()


def test_overlapping_first_calls_share_the_table(monkeypatch):
    """Two threads make the first calls at n = 4 on an empty table: the
    first stops at its first member below, the second runs to the end
    meanwhile, and the first then finishes on the table the second
    filled.  Both lists equal the reference, every entry is the
    definition's, and the collector is on after both."""
    pbw._member_table.cache_clear()
    real = pbw._members_below
    first_in, second_done = threading.Event(), threading.Event()

    def members_below(sk, chosen):
        if threading.current_thread().name == "first" and not first_in.is_set():
            first_in.set()
            second_done.wait(10)
        return real(sk, chosen)

    monkeypatch.setattr(pbw, "_members_below", members_below)
    s = PbwSubset.make(4, (1, 3))
    found = {}

    def run():
        found[threading.current_thread().name] = lagrangian_fixed_points(s)

    first = threading.Thread(name="first", target=run)
    second = threading.Thread(name="second", target=run)
    first.start()
    assert first_in.wait(10)
    second.start()
    second.join(10)
    assert not second.is_alive()
    second_done.set()
    first.join(10)
    assert not first.is_alive()
    assert found["first"] == found["second"] == _reference_fixed_points(s)
    assert gc.isenabled()
    for member, entry in pbw._member_table(4).items():
        assert entry == _reference_member_sets(member, 4), member


def test_concurrent_calls_leave_collector_on():
    """Stress: eight threads (more than cores) call the enumeration at
    once, with a short switch interval so pauses interleave at every
    step; after each batch the collector must be on again, which a lost
    record-and-switch would break."""
    s = PbwSubset.make(2, ())
    want = lagrangian_fixed_points(s)
    results = []

    def work(barrier):
        barrier.wait(10)
        results.extend(lagrangian_fixed_points(s) == want for _ in range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            barrier = threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(barrier,)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        gc.enable()
    assert results and all(results)


def _fault(fp, subset):
    """The message the self-check raises on fp, or None."""
    try:
        _check_fixed_point(fp, subset)
    except AssertionError as exc:
        return str(exc)
    return None


def test_fixed_point_check_messages():
    s2, s3 = PbwSubset.make(2, ()), PbwSubset.make(3, ())
    assert _fault(FixedPoint(2, ((1,), (1, 3))), s2) is None
    assert _fault(FixedPoint(2, ((1,), (1, 3), (1, 2, 3))), s2) == \
        "chain has 4 members, not 3"
    assert _fault(FixedPoint(3, ((1,), (1, 2))), s3) == "chain has 4 members, not 5"
    # fewer than n - 1 stored members, and n + 1 of them
    assert _fault(FixedPoint(3, ((1,),)), s3) == "chain has 3 members, not 5"
    assert _fault(FixedPoint(2, ()), s2) == "chain has 1 members, not 3"
    assert _fault(FixedPoint(3, ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))), s3) == \
        "chain has 6 members, not 5"
    assert _fault(FixedPoint(2, ((1, 3), (1, 3))), s2) == "member 1 has wrong size"
    # 5 lies outside 1..4, so the mirrored member dual(S_1) keeps all four
    assert _fault(FixedPoint(2, ((5,), (1, 3))), s2) == "member 3 has wrong size"
    # -1 lies outside 1..6 as well
    assert _fault(FixedPoint(3, ((1,), (-1, 1), (1, 2, 3))), s3) == \
        "member 4 has wrong size"
    # a repeated element: every link holds, but dual(S_2) has five elements
    assert _fault(FixedPoint(3, ((1,), (1, 1), (1, 2, 3))), s3) == \
        "member 4 has wrong size"
    assert _fault(FixedPoint(2, ((1,), (1, 4))), s2) == "middle member is not self-dual"
    # a broken link in the lower half: S_1 is not inside S_2
    assert _fault(FixedPoint(3, ((3,), (1, 2), (1, 2, 3))), s3) == \
        "member 1 does not map into member 2"


def test_fixed_point_chain_needs_n_members():
    for fp in (FixedPoint(3, ((1,),)), FixedPoint(2, ()),
               FixedPoint(2, ((1,), (1, 3), (1, 2, 3)))):
        with pytest.raises(ValueError, match="stores %d members, not %d"
                           % (len(fp.subsets), fp.n)):
            fixed_point_chain(fp)


def test_fixed_point_check_degenerate_wall():
    """Wall 1 may drop element 2 only when it is degenerate."""
    fp = FixedPoint(2, ((2,), (1, 3)))
    assert fp in lagrangian_fixed_points(PbwSubset.make(2, [1]))
    assert _fault(fp, PbwSubset.make(2, [1])) is None
    assert _fault(fp, PbwSubset.make(2, [])) == "member 1 does not map into member 2"


def test_fixed_point_check_mirrored_half():
    """With the walls of its own locus, a mirrored link breaks exactly when
    its lower mirror image does, and the lower one is reported first.
    Against the walls of n = 4, i = {1} (iprime {1, 6}), a point of n = 3
    may drop 2 at wall 1 but not 5 at wall 4, so only its mirrored half
    breaks; with n = 3, i = {1} (iprime {1, 4}) it is a fixed point."""
    fp = FixedPoint(3, ((2,), (1, 3), (1, 2, 3)))
    assert _fault(fp, PbwSubset.make(3, [1])) is None
    assert _fault(fp, PbwSubset.make(4, [1])) == "member 4 does not map into member 5"


@pytest.fixture
def member_table_cleared():
    """Clear the member table after the test, so that no member a test
    injected stays in it."""
    yield
    pbw._member_table.cache_clear()


def _inject_below(monkeypatch, target, extra):
    """Make _members_below also offer extra as a member below target."""
    real = pbw._members_below

    def members_below(sk, chosen):
        yield from real(sk, chosen)
        if sk == target:
            yield extra

    monkeypatch.setattr(pbw, "_members_below", members_below)


@pytest.mark.parametrize("extra, message", [
    ((1, 2, 3), "member 2 has wrong size"),
    # a repeated element: the link holds, but dual((1, 1)) has five elements
    ((1, 1), "member 4 has wrong size"),
    ((1, 4), "member 2 does not map into member 3"),
])
def test_enumeration_rejects_bad_member_below(monkeypatch, member_table_cleared,
                                              extra, message):
    """A bad member offered below the middle member (1, 2, 3) of n = 3
    fails the check of its edge, before any point is built."""
    _inject_below(monkeypatch, (1, 2, 3), extra)
    with pytest.raises(AssertionError, match=re.escape(message)):
        lagrangian_fixed_points(PbwSubset.make(3, ()))


def test_enumeration_rejects_bad_middle_member(monkeypatch):
    real = pbw._middle_members
    monkeypatch.setattr(pbw, "_middle_members",
                        lambda n: itertools.chain(real(n), [(1, 3, 4)]))
    with pytest.raises(AssertionError, match="middle member is not self-dual"):
        lagrangian_fixed_points(PbwSubset.make(3, ()))


def test_enumeration_checks_run_on_a_full_table(monkeypatch, member_table_cleared):
    """The self-checks run on every call, not once per member of the
    table: after a call at n = 3 has filled it, a bad middle member and
    each bad member below (1, 2, 3) still fail with their messages."""
    s = PbwSubset.make(3, ())
    lagrangian_fixed_points(s)
    real_middle = pbw._middle_members
    with monkeypatch.context() as patch:
        patch.setattr(pbw, "_middle_members",
                      lambda n: itertools.chain(real_middle(n), [(1, 3, 4)]))
        with pytest.raises(AssertionError, match="middle member is not self-dual"):
            lagrangian_fixed_points(s)
    for extra, message in [((1, 2, 3), "member 2 has wrong size"),
                           ((1, 1), "member 4 has wrong size"),
                           ((1, 4), "member 2 does not map into member 3")]:
        with monkeypatch.context() as patch:
            _inject_below(patch, (1, 2, 3), extra)
            with pytest.raises(AssertionError, match=re.escape(message)):
                lagrangian_fixed_points(s)


def test_enumeration_rejects_broken_mirrored_link(monkeypatch):
    """With the doubled subset's walls, a mirrored link holds exactly when
    its lower mirror image does, so it can only break on its own when the
    degenerate walls are not symmetric.  Keeping wall 1 but not its mirror
    4 for n = 3, i = {1}, the member (2,) below (1, 3) passes its lower
    link and breaks the mirrored one, as in the mirrored-half test."""
    monkeypatch.setattr(pbw, "iprime", lambda subset: subset.i)
    with pytest.raises(AssertionError, match="member 4 does not map into member 5"):
        lagrangian_fixed_points(PbwSubset.make(3, [1]))


def _reference_fault(fp, subset):
    """The conditions straight from their definitions, first failure first."""
    n = fp.n
    ground = range(1, 2 * n + 1)

    def dual(s):
        return tuple(x for x in ground if 2 * n + 1 - x not in s)

    if len(fp.subsets) != n:
        return "chain has %d members, not %d" % (len(fp.subsets) + n - 1, 2 * n - 1)
    chain = list(fp.subsets) + [dual(fp.subsets[k - 1]) for k in range(n - 1, 0, -1)]
    for v, member in enumerate(chain, 1):
        if len(member) != v:
            return "member %d has wrong size" % v
    if dual(chain[n - 1]) != chain[n - 1]:
        return "middle member is not self-dual"
    degenerate = set(iprime(subset))
    for v in range(1, 2 * n - 1):
        if not set(chain[v - 1]) - ({v + 1} if v in degenerate else set()) <= set(chain[v]):
            return "member %d does not map into member %d" % (v, v + 1)
    return None


def test_fixed_point_check_matches_reference():
    """The self-check, run over the points of every subset with one member
    replaced (other sizes, elements outside 1..2n, repeated elements,
    members of other points), agrees with the definitions, message for
    message."""
    rng = random.Random(57)
    faults = set()
    for n in range(1, 5):
        for s in _all_subsets(n):
            points = lagrangian_fixed_points(s)
            for fp in rng.sample(points, min(len(points), 60)):
                for _ in range(4):
                    k = rng.randrange(n)
                    size = rng.randint(k, k + 2)
                    pick = rng.randrange(3)
                    if pick == 0:
                        member = tuple(sorted(rng.sample(range(-1, 2 * n + 2), size)))
                    elif pick == 1:
                        member = tuple(sorted(rng.choices(range(1, 2 * n + 1), k=size)))
                    else:
                        member = rng.choice(points).subsets[k]
                    subsets = fp.subsets[:k] + (member,) + fp.subsets[k + 1:]
                    bad = FixedPoint(n, subsets)
                    want = _reference_fault(bad, s)
                    assert _fault(bad, s) == want, (s, bad)
                    faults.add(want and re.sub(r"\d+", "#", want))
    assert faults == {None, "member # has wrong size", "middle member is not self-dual",
                      "member # does not map into member #"}


def test_fixed_point_count_grows():
    base = len(lagrangian_fixed_points(PbwSubset.make(2, [])))
    degen = len(lagrangian_fixed_points(PbwSubset.make(2, [1])))
    assert base == 8 and degen == 10


def test_fixed_point_count_bounded_below():
    """Every fixed point of the empty subset is one of every subset (all
    subsets with n <= 4), so no count falls below 2^n n! (n <= 8): the
    bound pbw-fixed-points uses to refuse a count too long to print."""
    for n in range(1, 5):
        base = set(lagrangian_fixed_points(PbwSubset.make(n, [])))
        for s in _all_subsets(n):
            assert base <= set(lagrangian_fixed_points(s)), (n, s.i)
    for n in range(1, 9):
        for s in _all_subsets(n):
            assert count_lagrangian_fixed_points(s) >= 2 ** n * math.factorial(n)


def _perturbed_vectors(subset, rng, count=4):
    """The zero vector, the interior point, and seeded +-1 perturbations
    of both at one to three entries."""
    n = subset.n
    keys = canonical_root_keys(n)
    for base in (zero_root_vector(n), find_interior_point(subset)):
        yield base
        for _ in range(count):
            entries = dict(base.items())
            for key in rng.sample(keys, min(len(keys), rng.randint(1, 3))):
                entries[key] += rng.choice((-1, 1))
            yield CRootVector(n, entries)


def test_face_contains_is_empty_violations():
    rng = random.Random(55)
    checked = 0
    for n in range(1, 6):
        for s in _all_subsets(n):
            for d in _perturbed_vectors(s, rng):
                for strict in (False, True):
                    assert dynkin_face_contains(s, d, strict) == \
                        (not dynkin_face_violations(s, d, strict))
                    checked += 1
    assert checked == 2 * 10 * sum(2 ** (n - 1) for n in range(1, 6))


def _chosen_wall_pairs(n, walls):
    """(all, bullet2) pair constraints at the given walls, counted from the
    roots: at wall b - 1, each a < b pairs e_a - e_b with e_b - e_c for
    c = b+1..n (bullet1) and with e_b + e_c for c = 1..n (bullet2 when
    c < b)."""
    bs = [w + 1 for w in walls]
    return (sum((b - 1) * (2 * n - b) for b in bs),
            sum((b - 1) * (b - 1) for b in bs))


def test_zero_strict_violations_are_chosen_wall_pairs():
    """The zero vector is exactly additive, so in strict mode it breaks
    every pair constraint at a chosen wall and nothing else."""
    rng = random.Random(58)
    for n in (8, 9):
        zero = zero_root_vector(n)
        subsets = [PbwSubset.make(n, ()), PbwSubset.make(n, range(1, n))]
        subsets += [PbwSubset.make(n, [w for w in range(1, n) if rng.random() < 0.5])
                    for _ in range(6)]
        for s in subsets:
            rows = dynkin_face_violations(s, zero, strict=True)
            total, bullet2 = _chosen_wall_pairs(n, s.i)
            assert len(rows) == total, s
            assert sum(row["family"] == "bullet2" for row in rows) == bullet2, s
            for row in rows:
                assert row["family"] in ("bullet1", "bullet2") and row["wall"] in s.i
                assert (row["lhs"], row["rhs"], row["relation"]) == (0, 0, ">")
            assert not dynkin_face_violations(s, zero)


def test_face_results_independent_of_call_order():
    """The constraint tables are shared by every subset of one n, so two
    subsets give the same answers whichever is asked first."""
    n = 6
    first, second = PbwSubset.make(n, (1, 4)), PbwSubset.make(n, (2, 3, 5))
    vectors = [zero_root_vector(n), find_interior_point(first),
               find_interior_point(second)]

    def answers(s):
        return ([dynkin_face_violations(s, d, strict)
                 for d in vectors for strict in (False, True)],
                [dynkin_face_contains(s, d, True) for d in vectors],
                find_interior_point(s))

    pbw._face_tables.cache_clear()
    forward = {s: answers(s) for s in (first, second)}
    pbw._face_tables.cache_clear()
    backward = {s: answers(s) for s in (second, first)}
    assert forward == backward
    assert forward[first] != forward[second]


def _rank(rows):
    """Rank of the forms d(k1) + d(k2) - d(k3) - d(k4), by exact
    elimination on sparse Fraction rows."""
    pivots = {}
    for k1, k2, k3, k4 in rows:
        v = {}
        for key, c in ((k1, 1), (k2, 1), (k3, -1), (k4, -1)):
            v[key] = v.get(key, 0) + c
        v = {key: Fraction(c) for key, c in v.items() if c}
        while v:
            lead = min(v)
            if lead not in pivots:
                pivots[lead] = v
                break
            row = pivots[lead]
            f = v[lead] / row[lead]
            for key, c in row.items():
                x = v.get(key, 0) - f * c
                if x:
                    v[key] = x
                else:
                    v.pop(key, None)
    return len(pivots)


def test_spanning_rows_have_full_exchange_rank():
    """The spanning rows are exchange rows, and no fewer independent
    ones: so they span every exchange row (the argument for every n is
    in the _face_tables docstring)."""
    ranks = []
    for n in range(3, 11):
        spanning = pbw._face_tables(n)[1]
        full = [roots for _, roots in pbw._exchange_rows(n)]
        assert set(spanning) <= set(full)
        assert len(spanning) == (n - 1) * (n - 2) + max(0, (n - 3) * (n - 4))
        rank = _rank(full)
        assert _rank(spanning) == rank
        ranks.append(rank)
    assert ranks == [2, 6, 13, 22, 33, 46, 61, 78]


def test_spanning_rows_hold_iff_exchange_rows_hold():
    rng = random.Random(57)
    seen = set()
    for n in range(1, 8):
        spanning = pbw._face_tables(n)[1]
        full = [roots for _, roots in pbw._exchange_rows(n)]
        for s in _all_subsets(n):
            for d in _perturbed_vectors(s, rng):
                def holds(rows):
                    return all(d.d(k1) + d.d(k2) == d.d(k3) + d.d(k4)
                               for k1, k2, k3, k4 in rows)
                verdict = holds(spanning)
                assert verdict == holds(full), (s, d)
                seen.add(verdict)
    assert seen == {False, True}


def test_face_checks_skip_full_exchange_rows(monkeypatch):
    """At n = 40 (30,400 exchange rows) membership, the interior point and
    the zero vector's report read only the pair and spanning rows."""
    n = 40

    def refuse(n):
        raise AssertionError("full exchange rows walked")

    monkeypatch.setattr(pbw, "_exchange_rows", refuse)
    zero = zero_root_vector(n)
    rng = random.Random(59)
    subsets = [PbwSubset.make(n, ()), PbwSubset.make(n, range(1, n)),
               PbwSubset.make(n, [w for w in range(1, n) if rng.random() < 0.5])]
    for s in subsets:
        d = find_interior_point(s)
        assert dynkin_face_contains(s, d, strict=True)
        assert dynkin_face_contains(s, zero)
        assert dynkin_face_contains(s, zero, strict=True) == (not s.i)
        rows = dynkin_face_violations(s, zero, strict=True)
        total, bullet2 = _chosen_wall_pairs(n, s.i)
        assert len(rows) == total
        assert sum(row["family"] == "bullet2" for row in rows) == bullet2
        assert all(row["family"] in ("bullet1", "bullet2") and row["wall"] in s.i
                   for row in rows)
    # a broken exchange row does reach the full rows
    entries = dict(zero.items())
    entries[("u", 1, 2)] = 1
    with pytest.raises(AssertionError, match="full exchange rows walked"):
        dynkin_face_violations(subsets[0], CRootVector(n, entries))


def test_face_violations_pinned():
    """Violation dicts and their order, as computed before contains and
    violations shared one constraint walk."""
    rng = random.Random(56)
    records = []
    for n in range(1, 5):
        for s in _all_subsets(n):
            for d in _perturbed_vectors(s, rng, count=2):
                for strict in (False, True):
                    records.append(dynkin_face_violations(s, d, strict))
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == FACE_VIOLATIONS_DIGEST


def _root_vector(key, n):
    """The integer vector of a canonical key, by the convention of
    canonical_root_keys: ("u", i, j) is e_i - e_{j+1} for j < n and e_i +
    e_n for j = n; ("b", i, j) is e_i + e_j."""
    kind, i, j = key
    v = [0] * n
    v[i - 1] += 1
    if kind == "u" and j < n:
        v[j] -= 1
    else:
        v[(j if kind == "b" else n) - 1] += 1
    return tuple(v)


def test_face_rows_match_root_arithmetic():
    """The pair rows, rebuilt from the roots of C_n as integer vectors: for
    every unordered pair of positive roots whose sum is a root, beta1 is
    the member with -1 at the cancelled coordinate b (where the two have
    opposite signs) and the wall is b - 1.  With every wall chosen, the
    zero vector breaks every pair row in strict mode, so its report lists
    them all; it must list this multiset exactly.  A row is bullet2
    exactly when beta2 = e_c + e_b with c < b."""
    for n in range(1, 9):
        unit = [tuple(int(k == a) for k in range(n)) for a in range(n)]
        roots = {tuple(x - y for x, y in zip(unit[a], unit[b]))
                 for a in range(n) for b in range(a + 1, n)}
        roots |= {tuple(x + y for x, y in zip(unit[a], unit[b]))
                  for a in range(n) for b in range(a, n)}
        assert len(roots) == n * n
        assert {_root_vector(key, n) for key in canonical_root_keys(n)} == roots
        want = collections.Counter()
        bullet2 = collections.Counter()
        for r1, r2 in itertools.combinations(sorted(roots), 2):
            total = tuple(x + y for x, y in zip(r1, r2))
            if total not in roots:
                continue
            cancelled = [k for k in range(n) if r1[k] * r2[k] < 0]
            assert len(cancelled) == 1, (r1, r2)
            b = cancelled[0] + 1
            beta1, beta2 = (r1, r2) if r1[b - 1] < 0 else (r2, r1)
            row = (b - 1, beta1, beta2, total)
            want[row] += 1
            if sum(beta2) == 2 and max(beta2) == 1 and beta2.index(1) < b - 1:
                bullet2[row] += 1
        rows = dynkin_face_violations(PbwSubset.make(n, range(1, n)), zero_root_vector(n),
                                      strict=True)
        got = collections.Counter(
            (row["wall"],) + tuple(_root_vector(key, n) for key in row["roots"])
            for row in rows)
        assert got == want and sum(want.values()) == (2 * n - 1) * (n - 1) * n // 3
        assert collections.Counter(
            (row["wall"],) + tuple(_root_vector(key, n) for key in row["roots"])
            for row in rows if row["family"] == "bullet2") == bullet2
        assert all((row["lhs"], row["rhs"], row["relation"]) == (0, 0, ">") for row in rows)


def test_oversized_root_vector_refused_at_once():
    """A vector whose entry count is not n^2 is refused before the n^2
    keys are built: n = 10**6 with one entry raises at once, naming the
    first four missing keys in sorted order."""
    start = time.perf_counter()
    with pytest.raises(ValueError) as caught:
        CRootVector(10 ** 6, {("u", 1, 1): 0})
    assert time.perf_counter() - start < 1
    assert str(caught.value) == ("bad root keys: missing [('b', 1, 1), ('b', 1, 2), "
                                 "('b', 1, 3), ('b', 1, 4)], extra []")


def test_bad_root_keys_message_matches_the_key_sets():
    """The missing and extra keys of a refused vector are the first four
    of each set difference with the canonical keys, sorted."""
    rng = random.Random(60)
    foreign = [("u", 0, 1), ("b", 2, 1), ("b", 1, 9), ("x", 1, 1), ("u", 1, 99)]
    for n in range(1, 6):
        need = canonical_root_keys(n)
        for _ in range(30):
            keys = rng.sample(need, rng.randint(0, len(need)))
            keys += rng.sample(foreign, rng.randint(0, len(foreign)))
            entries = dict.fromkeys(keys, 0)
            if set(keys) == set(need):
                continue
            missing = sorted(set(need) - set(keys))[:4]
            extra = sorted(set(keys) - set(need))[:4]
            with pytest.raises(ValueError) as caught:
                CRootVector(n, entries)
            assert str(caught.value) == "bad root keys: missing %r, extra %r" % (missing, extra)


@pytest.mark.parametrize("enabled", [True, False])
def test_face_report_pauses_the_collector(enabled):
    """dynkin_face_violations builds its list with the collector paused:
    a report of 17,110 rows, two tracked objects each, starts at most the
    one collection its rows are due once the collector is back on (45
    with the pause taken out), and the call leaves the collector as it
    found it."""
    n = 30
    full, zero = PbwSubset.make(n, range(1, n)), zero_root_vector(n)
    dynkin_face_violations(full, zero)
    starts = []

    def callback(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(callback)
    try:
        rows = dynkin_face_violations(full, zero, strict=True)
        during = len(starts)
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(callback)
        gc.enable()
    assert during <= int(enabled)
    assert len(rows) == (2 * n - 1) * (n - 1) * n // 3 == 17110


def test_fixed_point_check_survives_optimize():
    """The fixed-point self-check, and the edge checks of the enumeration,
    raise under python -O as well."""
    src = os.path.dirname(os.path.dirname(sympdeg.__file__))
    code = ("from sympdeg import pbw\n"
            "from sympdeg.pbw import FixedPoint, PbwSubset, _check_fixed_point\n"
            "for bad in (FixedPoint(2, ((1,), (1, 4))), FixedPoint(3, ((1,),))):\n"
            "    try:\n"
            "        _check_fixed_point(bad, PbwSubset.make(bad.n, ()))\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "real = pbw._members_below\n"
            "pbw._members_below = lambda sk, chosen: list(real(sk, chosen)) + [(1, 4)]\n"
            "try:\n"
            "    pbw.lagrangian_fixed_points(PbwSubset.make(3, ()))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["middle member is not self-dual",
                                       "chain has 3 members, not 5",
                                       "member 2 does not map into member 3", ""]


def test_root_vector_value_class():
    """Equality and hash go by n and the entries, whatever their order;
    the repr lists the entries in key order."""
    vec = CRootVector(1, {("u", 1, 1): 3})
    assert vec == CRootVector(1, {("u", 1, 1): 3}) and hash(vec) == hash(CRootVector(1, vec._d))
    assert vec != zero_root_vector(1) and vec != {("u", 1, 1): 3}
    assert repr(vec) == "CRootVector(n=1, {('u', 1, 1): 3})"
    entries = {key: k for k, key in enumerate(canonical_root_keys(2))}
    shuffled = CRootVector(2, dict(reversed(list(entries.items()))))
    assert shuffled == CRootVector(2, entries) and hash(shuffled) == hash(CRootVector(2, entries))
