import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

import sympdeg
from sympdeg import pbw
from sympdeg.core import dim_vector
from sympdeg.coxeter import evaluate, is_reduced
from sympdeg.errors import Infeasible
from sympdeg.pbw import (
    CRootVector, FixedPoint, PbwSubset, _check_fixed_point,
    _fixed_point_checker, build_Mi, canonical_root_keys,
    check_lemma_ui, count_lagrangian_fixed_points, dynkin_face_contains,
    dynkin_face_violations, ell_sequence, find_interior_point,
    fixed_point_chain, h_sequence, iprime, lagrangian_fixed_points, psi,
    sigma_i_map, theta, u_iprime_word, w_i_word, zero_root_vector,
)

FACE_VIOLATIONS_DIGEST = "8115a810284f6f3b1ab75b0ac2f88c4743b80598ff08e2547e500cb97af7572a"
FIXED_POINTS_DIGEST = "9abda2020c4ffe0d0bcb85bbcfbe80a1a2857b99d7451284bac089555fcd5d8f"


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
    assert psi(s, (7, 8, 9)) == (7, 0, 8, 9)
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
    assert psi(s, (4, 5, 6)) == (4, 5, 6)


def test_psi_wrong_length():
    with pytest.raises(ValueError):
        psi(PbwSubset.make(3, [1]), (1, 2))


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


def test_fixed_point_counts_no_degeneration():
    for n in range(1, 5):
        points = lagrangian_fixed_points(PbwSubset.make(n, []))
        assert len(points) == 2 ** n * math.factorial(n)
    for n in range(1, 9):
        assert count_lagrangian_fixed_points(PbwSubset.make(n, [])) == \
            2 ** n * math.factorial(n)


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
    as enumerated before the chains below each member were shared."""
    digest = hashlib.sha256()
    for n in range(1, 6):
        for s in _all_subsets(n):
            points = [list(map(list, fp.subsets)) for fp in lagrangian_fixed_points(s)]
            assert count_lagrangian_fixed_points(s) == len(points), (n, s.i)
            digest.update(json.dumps([n, list(s.i), points]).encode())
    assert digest.hexdigest() == FIXED_POINTS_DIGEST


def test_fixed_point_count_n6():
    assert len(lagrangian_fixed_points(PbwSubset.make(6, []))) == 2 ** 6 * math.factorial(6)


def _fault(fp, subset, check=None):
    """The message the self-check (or a checker built for subset) raises
    on fp, or None."""
    try:
        if check is None:
            _check_fixed_point(fp, subset)
        else:
            check(fp)
    except AssertionError as exc:
        return str(exc)
    return None


def test_fixed_point_check_messages():
    s2, s3 = PbwSubset.make(2, ()), PbwSubset.make(3, ())
    assert _fault(FixedPoint(2, ((1,), (1, 3))), s2) is None
    assert _fault(FixedPoint(2, ((1,), (1, 3), (1, 2, 3))), s2) == \
        "chain has 4 members, not 3"
    assert _fault(FixedPoint(3, ((1,), (1, 2))), s3) == "chain has 4 members, not 5"
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


def test_fixed_point_check_accepts_without_fallback(monkeypatch):
    """The cached verdicts accept every enumerated point by themselves; the
    condition-by-condition pass runs only on a point that fails."""
    def fallback(fp, subset):
        raise RuntimeError("fallback reached on %r" % (fp,))
    monkeypatch.setattr(pbw, "_raise_first_fault", fallback)
    for n in range(1, 5):
        for s in _all_subsets(n):
            assert lagrangian_fixed_points(s)


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
    """One checker per subset, as in the enumeration, run over its points
    with one member replaced (other sizes, elements outside 1..2n,
    repeated elements, members of other points) agrees with the
    definitions, message for message."""
    rng = random.Random(57)
    faults = set()
    for n in range(1, 5):
        for s in _all_subsets(n):
            points = lagrangian_fixed_points(s)
            check = _fixed_point_checker(n, s)
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
                    assert _fault(bad, s, check) == want, (s, bad)
                    faults.add(want and re.sub(r"\d+", "#", want))
    assert faults == {None, "member # has wrong size", "middle member is not self-dual",
                      "member # does not map into member #"}


def test_fixed_point_count_grows():
    base = len(lagrangian_fixed_points(PbwSubset.make(2, [])))
    degen = len(lagrangian_fixed_points(PbwSubset.make(2, [1])))
    assert base == 8 and degen == 10


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


def test_fixed_point_check_survives_optimize():
    """The fixed-point self-check raises under python -O as well."""
    src = os.path.dirname(os.path.dirname(sympdeg.__file__))
    code = ("from sympdeg.pbw import FixedPoint, PbwSubset, _check_fixed_point\n"
            "bad = FixedPoint(2, ((1,), (1, 4)))\n"
            "try:\n"
            "    _check_fixed_point(bad, PbwSubset.make(2, ()))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "middle member is not self-dual"
