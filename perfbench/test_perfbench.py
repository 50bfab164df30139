"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WrongAnswer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def bound(name, seed, lib):
    wl = workloads.make(name, seed, run.ROOT)
    wl.bind(lib)
    wl.screen(Counter())
    return wl


def first_ok(wl, kind):
    """The first operation of a kind whose call succeeds, with its output."""
    for ops in wl.rounds():
        for item in ops:
            if item[0] != kind:
                continue
            try:
                return item, wl.call(item)
            except wl.lib.errors.SympdegError:
                continue


# --- generators -------------------------------------------------------------------

def inputs(wl):
    if isinstance(wl, workloads.OrdinaryPaths):     # its rounds need the screen
        return [item[:4] for item in wl.pool + wl.closures]
    return [item[:5] for ops, _ in zip(wl.rounds(), range(3)) for item in ops]


@pytest.mark.parametrize("name", ["ordinary-paths", "symmetric-peel", "pbw-loci"])
def test_generators_are_deterministic_per_seed(name):
    a, b, c = (workloads.make(name, seed, run.ROOT) for seed in (7, 7, 8))
    assert inputs(a) == inputs(b)
    assert inputs(a) != inputs(c)


def test_cli_inputs_are_deterministic_per_seed():
    made = []
    for seed in (7, 7, 8):
        wl = workloads.make("cli-verbs", seed, run.ROOT)
        try:
            made.append([[Path(a).read_text() if a.endswith(".json") else a for a in argv]
                         for items in wl.drawn.values() for argv in items])
        finally:
            wl.close()
    assert made[0] == made[1] != made[2]


def test_descendants_are_degenerations():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(3, 12)
        M = gen.random_module(rng, n, 6)
        N = gen.random_descendant(rng, M, 5)
        assert gen.dims(n, M) == gen.dims(n, N)
        assert gen.dominates(gen.ranks(n, M), gen.ranks(n, N))
        E = gen.random_epsilon_module(rng, 2 * (n // 2) + 1, 3)
        F = gen.random_sym_descendant(rng, 2 * (n // 2) + 1, E, 3)
        assert gen.is_epsilon(2 * (n // 2) + 1, E) and gen.is_epsilon(2 * (n // 2) + 1, F)


# --- the screen -------------------------------------------------------------------

def domain_errors(lib):
    return {name for name, obj in vars(lib.errors).items()
            if isinstance(obj, type) and issubclass(obj, lib.errors.SympdegError)}


def test_screen_keeps_equal_sizes_and_tallies_the_rest(lib):
    wl = workloads.make("ordinary-paths", 1, run.ROOT)
    wl.bind(lib)
    tally = Counter()
    wl.screen(tally)
    assert Counter(item[1] for item in wl.paths) == {n: wl.PER_SIZE for n in wl.SIZES}
    assert set(tally) <= domain_errors(lib)


def test_cli_keeps_only_inputs_that_complete_in_process(lib):
    wl = bound("cli-verbs", 1, lib)
    try:
        assert all(len(items) == min(wl.PER_VERB, len(wl.drawn[verb]))
                   for verb, items in wl.items.items())
        assert all(wl.expected[tuple(argv)][0] == 0
                   for items in wl.items.values() for argv in items)
        assert set(wl.screened) <= domain_errors(lib)
    finally:
        wl.close()


# --- independent expected values agree with the package at small sizes ------------

def test_own_ranks_and_closures_match_the_package(lib):
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 10)
        M = gen.random_module(rng, n, rng.randint(0, 7))
        assert gen.ranks(n, M) == lib.core.ranks_of(lib.core.Representation(n, M))._rows
    for _ in range(10):
        M = gen.random_module(rng, 5, 4)
        got = lib.oracle.closure_enumerate(lib.core.Representation(5, M), "ORDINARY")
        assert {frozenset(r.mult.items()) for r in got} == gen.closure(5, M)


def test_own_reducedness_matches_the_package(lib):
    rng = random.Random(5)
    for _ in range(1000):
        kind, m = rng.choice("AC"), rng.randint(2, 6)
        letters = [rng.randint(1, m - 1 if kind == "A" else m) for _ in range(rng.randint(0, 10))]
        word = lib.coxeter.WeylWord.make(kind, m, letters)
        assert gen.is_reduced(kind, m, letters) == lib.coxeter.is_reduced(word)


def test_own_fixed_point_counts(lib):
    for n in (1, 2, 3, 4):
        assert gen.fixed_point_count(n, ()) == 2 ** n * math.factorial(n)
        for subset in gen.all_subsets(n):
            points = lib.pbw.lagrangian_fixed_points(lib.pbw.PbwSubset.make(n, subset))
            assert gen.fixed_point_count(n, subset) == len(points)


# --- every check rejects a corrupted output ---------------------------------------

def test_path_check_rejects_a_dropped_move(lib):
    wl = bound("ordinary-paths", 1, lib)
    item, out = first_ok(wl, "path")
    wl.check(item, out)
    with pytest.raises(WrongAnswer):
        wl.check(item, out[:-1])
    with pytest.raises(WrongAnswer):
        wl.check(item, out[1:])


def test_closure_check_rejects_a_wrong_size(lib):
    wl = bound("ordinary-paths", 1, lib)
    item, out = first_ok(wl, "closure")
    wl.check(item, out)
    with pytest.raises(WrongAnswer):
        wl.check(item, set(list(out)[1:]))


def test_symmetric_check_rejects_a_dropped_stage(lib):
    wl = bound("symmetric-peel", 1, lib)
    item, out = first_ok(wl, "path")
    wl.check(item, out)
    with pytest.raises(WrongAnswer):
        wl.check(item, out[:-1])
    item, moves = first_ok(wl, "refine")
    wl.check(item, moves)
    with pytest.raises(WrongAnswer):
        wl.check(item, moves[:-1])


def test_fixed_point_check_rejects_a_wrong_count(lib):
    wl = bound("pbw-loci", 1, lib)
    item = next(f for f in wl.fixed if f[1] == 4)
    out = wl.call(item)
    wl.check(item, out)
    with pytest.raises(WrongAnswer):
        wl.check(item, out[:-1])


def test_locus_check_rejects_corruptions(lib):
    wl = bound("pbw-loci", 1, lib)
    item = next(x for x in wl.loci if x[2])
    out = wl.call(item)
    wl.check(item, out)
    erep, e, w, u, w_red, u_red, d, violations, lemma = out
    doubled = w._replace(letters=w.letters + w.letters[-1:])
    zero = lib.pbw.zero_root_vector(item[1])
    short = copy.deepcopy(lemma)
    short["rows"].pop()
    for bad in ((erep, e, doubled, u, w_red, u_red, d, violations, lemma),
                (erep, e, w, u, w_red, u_red, zero, violations, lemma),
                (erep, e, w, u, w_red, u_red, d, violations[1:], lemma),
                (erep, e, w, u, w_red, u_red, d, violations, short)):
        with pytest.raises(WrongAnswer):
            wl.check(item, bad)


def test_cli_check_rejects_a_wrong_count(lib):
    wl = bound("cli-verbs", 1, lib)
    try:
        item = wl.items["pbw-fixed-points"][0]
        code, stdout, stderr = wl.call(item)
        wl.check(item, (code, stdout, stderr))
        data = json.loads(stdout)
        data["count"] += 1
        with pytest.raises(WrongAnswer):
            wl.check(item, (code, json.dumps(data), stderr))
        with pytest.raises(WrongAnswer):
            wl.check(item, (1, "", "InsufficientMultiplicity: no"))
    finally:
        wl.close()


def test_cli_nonzero_exit_is_checked_before_it_counts_as_a_failure(lib):
    wl = bound("cli-verbs", 1, lib)
    try:
        item = wl.items["pbw-fixed-points"][0]
        wl.call = lambda item: (1, "", "InsufficientMultiplicity: no")
        out, err, _ = run.attempt(wl, item)
        assert err == "InsufficientMultiplicity"
        tally = Counter()
        with pytest.raises(WrongAnswer):
            run.settle(wl, item, out, err, tally)
        with pytest.raises(WrongAnswer):
            run.measure(wl, 0, time.perf_counter() + 60, tally)
        assert not tally
        # an exit the in-process run gave too is a failure, tallied by class
        wl.expected[tuple(item)] = (1, "", "InsufficientMultiplicity: expected")
        run.settle(wl, item, out, err, tally)
        assert tally == {"InsufficientMultiplicity": 1}
    finally:
        wl.close()


# --- tracing ------------------------------------------------------------------------

def test_wrappers_sit_at_every_binding_site_and_come_off(lib):
    originals = (lib.core.ranks_of, lib.degen.ranks_of,
                 lib.core.RankSequence.__dict__["validate"])
    tracer = spans.Tracer().prepare()
    tracer.install()
    try:
        assert lib.degen.ranks_of is lib.core.ranks_of is not originals[0]
        assert lib.core.RankSequence.__dict__["validate"] is not originals[2]
    finally:
        tracer.uninstall()
    assert (lib.core.ranks_of, lib.degen.ranks_of,
            lib.core.RankSequence.__dict__["validate"]) == originals


@pytest.mark.parametrize("name", ["ordinary-paths", "symmetric-peel", "pbw-loci"])
def test_wrapping_leaves_results_unchanged(lib, name):
    wl = bound(name, 2, lib)
    tracer = spans.Tracer().prepare()
    ops = [item for item in next(wl.rounds()) if item[:2] != ("fixed", 5)][:6]
    for item in ops:
        plain, err, _ = run.attempt(wl, item)
        traced, traced_err, _ = run.attempt(wl, item, tracer)
        assert err == traced_err
        assert wl.same(plain, traced)
    stats = tracer.record()["spans"]
    assert stats and all(s["self_s"] <= s["total_s"] + 1e-9 for s in stats.values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in run.PER_LAYER]
