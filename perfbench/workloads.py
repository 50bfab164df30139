"""The four workloads: seeded inputs, the library call per operation, and
the check of every output.

A workload is built from its seed alone (gen.py, no sympdeg), then bound
to the imported library and screened: inputs whose operation fails are
dropped before timing and tallied by error class.  Operations come in rounds; a round fixes the
operation mix (nine paths to one closure, four locus reports to one
fixed-point enumeration, one call of each CLI verb plus two more of the
slowest), and the harness stops only at a round boundary so every run
measures the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen


class WrongAnswer(Exception):
    """An output failed its check; this aborts the run."""


def expect(ok, message, *args):
    if not ok:
        raise WrongAnswer(message % args)


def _digest(modules):
    """(size, hash) of a set of frozen multiplicity maps; small to keep."""
    text = repr(sorted(sorted(m) for m in modules))
    return len(modules), hashlib.sha256(text.encode()).hexdigest()


def _cycle(pool, start, count):
    return [pool[(start + k) % len(pool)] for k in range(count)]


_REF_MODULES = [gen.random_module(random.Random(k), 16, 10) for k in range(8)]
_REF_CLOSURE = {(1, 3): 1, (2, 5): 1, (4, 6): 1}       # 130 modules


def ref_pass():
    """Seconds for one pass of a fixed pure-Python task made of the
    benchmark's own code, so it never changes with the package: rank tables
    and cut/shift moves of fixed modules (tight loops), and one closure at
    n = 6 (allocation-heavy, like the package's own operations)."""
    start = time.perf_counter()
    for mult in _REF_MODULES:
        gen.ranks(16, mult)
        for move in gen.moves_from(mult)[:20]:
            gen.apply_move(mult, move)
    gen.closure(6, _REF_CLOSURE)
    return time.perf_counter() - start


class Workload:
    name = ""
    trace_rounds = 1            # rounds in a traced run of 15 seconds
    ref_gap_s = 0.1             # wall seconds between reference samples

    def reference(self):
        """Seconds for one reference pass, the unit of the scaled times."""
        return ref_pass()

    def unit(self, refs):
        """The reference time an operation is scaled by, from the latest
        reference samples (oldest first): their median."""
        return statistics.median(refs)

    def bind(self, lib):
        """Take the imported library; build its input objects."""
        self.lib = lib

    def screen(self, tally):
        """Before timing, drop the inputs whose operation fails and tally
        them by error class, so no timed operation fails."""

    def rounds(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def call_traced(self, item, tracer):
        with tracer.active(self.lib.degen, self.lib.symdegen):
            return self.call(item)

    def failure(self, out):
        """Error class of an output that reports failure, else None."""
        return None

    def check(self, item, out):
        raise NotImplementedError

    def same(self, a, b):
        """Do a traced and an untraced call agree?"""
        return a == b

    def close(self):
        pass


# --- ordinary-paths -------------------------------------------------------------

class OrdinaryPaths(Workload):
    """Nine degeneration_path calls (n = 12, 16, 20, 24; about 10 segments,
    target about 8 cut/shift moves down) to one closure_enumerate at n = 6.

    The timed pairs are the first PER_SIZE pairs of each size that the
    package completes: screen() runs the drawn pairs once before timing and
    tallies those that raise (the generic-quotient defect), so no timed
    operation fails and the defect is still counted in every run."""

    name = "ordinary-paths"
    trace_rounds = 20
    SIZES = (12, 16, 20, 24)
    PER_SIZE = 20             # pairs of each size kept by the screen
    DRAWS = 100               # pairs drawn per size for the screen
    CLOSURES = 24
    CLOSURE_RANK_TOTAL = 30
    CLOSURE_BINS = ((1, 30), (31, 90), (91, 180), (181, 300))
    CLOSURE_POOL = 20000      # modules enumerated for closures per set-up

    def __init__(self, seed):
        rng = gen.make_rng(seed, self.name)
        self.pool = []
        for k in range(self.DRAWS * len(self.SIZES)):
            n = self.SIZES[k % len(self.SIZES)]
            M = gen.random_module(rng, n, 10)
            self.pool.append(["path", n, M, gen.random_descendant(rng, M, 8)])
        self.paths = []
        # closure starts are capped by rank total and closure size, and
        # taken in equal numbers from size bins so each seed gets the same
        # size mix; the rounds visit the bins in turn.  A closure costs
        # about the number of modules with its dimension vector, so every
        # seed enumerates CLOSURE_POOL of them (about twice what fills the
        # bins) and set-up does the same work whichever seed fills them
        # first; drawing goes on past that only if a bin is still short.
        per_bin = self.CLOSURES // len(self.CLOSURE_BINS)
        bins = [[] for _ in self.CLOSURE_BINS]
        enumerated = 0
        while enumerated < self.CLOSURE_POOL or any(len(b) < per_bin for b in bins):
            M = gen.random_module(rng, 6, rng.randint(3, 6))
            if sum(map(sum, gen.ranks(6, M))) > self.CLOSURE_RANK_TOTAL:
                continue
            pool = gen.modules_with_dims(gen.dims(6, M))
            enumerated += len(pool)
            want = gen.closure(6, M, pool)
            for b, (lo, hi) in zip(bins, self.CLOSURE_BINS):
                if lo <= len(want) <= hi and len(b) < per_bin:
                    b.append(["closure", 6, M, _digest(want)])
        self.closures = [b[k] for k in range(per_bin) for b in bins]

    def bind(self, lib):
        super().bind(lib)
        Rep = lib.core.Representation
        for item in self.pool:
            item[4:] = [Rep(item[1], item[2]), Rep(item[1], item[3])]
        for item in self.closures:
            item[4:] = [Rep(item[1], item[2])]

    def screen(self, tally):
        kept = {n: [] for n in self.SIZES}
        for item in self.pool:
            group = kept[item[1]]
            if len(group) == self.PER_SIZE:
                continue
            try:
                out = self.call(item)
            except self.lib.errors.SympdegError as exc:
                tally[type(exc).__name__] += 1
                continue
            self.check(item, out)
            group.append(item)
        # sizes interleaved and in equal numbers, so every round has the same mix
        self.paths = [item for row in zip(*kept.values()) for item in row]
        if not self.paths:
            raise RuntimeError("the screen kept no path pair of some size")

    def rounds(self):
        k = 0
        while True:
            yield _cycle(self.paths, 9 * k, 9) + [self.closures[k % len(self.closures)]]
            k += 1

    def warmup(self):
        return [self.pool[0], self.pool[1], self.closures[0]]

    def call(self, item):
        if item[0] == "path":
            return self.lib.degen.degeneration_path(item[4], item[5])
        return self.lib.oracle.closure_enumerate(item[4], "ORDINARY")

    def check(self, item, out):
        if item[0] == "closure":
            got = _digest({frozenset(rep.mult.items()) for rep in out})
            expect(got == item[3], "closure of %r has %d modules, expected %d",
                   item[2], got[0], item[3][0])
            return
        cur = item[2]
        for move, rep in out:
            step = (move.kind, move.t, move.s, move.q) + (
                (move.r,) if move.r is not None else ())
            cur = gen.apply_move(cur, step)
            expect(cur is not None, "path move %r is not applicable", step)
            expect(cur == rep.mult, "path stage after %r is wrong", step)
        expect(cur == item[3], "path from %r does not end at the target", item[2])


# --- symmetric-peel --------------------------------------------------------------

class SymmetricPeel(Workload):
    """Nine sym_degeneration_path calls (odd-neg n = 15, 21, 31; even-pos
    n = 16, 24; target about 4 paired moves down) to one
    sym_move_refinement(budget=2000) at n = 7 or 9."""

    name = "symmetric-peel"
    trace_rounds = 25
    CASES = (("odd-neg", 15), ("odd-neg", 21), ("odd-neg", 31),
             ("even-pos", 16), ("even-pos", 24))
    PAIRS, REFINES, BUDGET = 900, 60, 2000

    def __init__(self, seed):
        rng = gen.make_rng(seed, self.name)
        self.pairs = []
        for k in range(self.PAIRS):
            kind, n = self.CASES[k % len(self.CASES)]
            M = gen.random_epsilon_module(rng, n, 5)
            self.pairs.append(["path", kind, n, M,
                               gen.random_sym_descendant(rng, n, M, 4)])
        self.refines = []
        for k in range(self.REFINES):
            n = (7, 9)[k % 2]
            M = gen.random_epsilon_module(rng, n, 3)
            self.refines.append(["refine", "odd-neg", n, M,
                                 gen.random_sym_descendant(rng, n, M, 2)])

    def bind(self, lib):
        super().bind(lib)
        sd = lib.symdegen
        for item in self.pairs + self.refines:
            sym = sd.SymmetricType(item[2], -1 if item[1] == "odd-neg" else 1)
            item[5:] = [sd.EpsilonRep(lib.core.Representation(item[2], m), sym)
                        for m in (item[3], item[4])]

    def rounds(self):
        k = 0
        while True:
            yield _cycle(self.pairs, 9 * k, 9) + [self.refines[k % len(self.refines)]]
            k += 1

    def warmup(self):
        return [self.pairs[0], self.pairs[1], self.refines[0]]

    def call(self, item):
        sd = self.lib.symdegen
        if item[0] == "path":
            return sd.sym_degeneration_path(item[5], item[6])
        return sd.sym_move_refinement(item[5], item[6], budget=self.BUDGET)

    def check(self, item, out):
        n, M, N = item[2], item[3], item[4]
        if item[0] == "refine":
            if out is self.lib.symdegen.INCONCLUSIVE:
                return
            cur = M
            for mv in out:
                step = (mv.kind, mv.t, mv.s, mv.q) + ((mv.r,) if mv.r is not None else ())
                cur = gen.apply_sym_move(n, cur, step)
                expect(cur is not None, "paired move %r is not applicable", step)
            expect(cur == N, "paired moves from %r do not reach the target", M)
            return
        stages = [step.Z.rep.mult for step in out]
        expect(stages[0] == M and stages[-1] == N,
               "symmetric stages do not run from M to N (%r)", M)
        expect(out[-1].L is None and all(s.L is not None for s in out[:-1]),
               "peel labels are malformed")
        dims = gen.dims(n, M)
        prev = gen.ranks(n, M)
        for mult in stages[1:]:
            expect(gen.is_epsilon(n, mult), "stage %r is not an epsilon-module", mult)
            expect(gen.dims(n, mult) == dims, "stage %r changes dimensions", mult)
            here = gen.ranks(n, mult)
            expect(gen.dominates(prev, here), "stage %r is not dominated", mult)
            prev = here


# --- pbw-loci ------------------------------------------------------------------

class PbwLoci(Workload):
    """Per-subset locus reports at n = 8, 9 (module, both words and their
    reducedness, interior point, strict face check of zero, lemma report)
    and, every fifth op, the Lagrangian fixed points of one subset at
    n = 4 or 5; every subset of n = 4 and 5 comes up once per round."""

    name = "pbw-loci"
    trace_rounds = 1
    LOCUS_N = (8, 9)
    FIXED_N = (4, 5)

    def __init__(self, seed):
        rng = gen.make_rng(seed, self.name)
        self.rng = rng
        gen._chains_below.cache_clear()     # every set-up counts afresh
        self.fixed = []
        for n in self.FIXED_N:
            for subset in gen.all_subsets(n):
                self.fixed.append(["fixed", n, subset, gen.fixed_point_count(n, subset), None])
        for n in self.FIXED_N:
            want = 2 ** n * math.factorial(n)
            if gen.fixed_point_count(n, ()) != want:
                raise WrongAnswer("own fixed-point count for n=%d is not 2^n n!" % n)
        self.loci = []
        for k in range(4 * len(self.fixed) * 4):
            n = self.LOCUS_N[k % 2]
            subset = gen.random_subset(rng, n)
            self.loci.append(["locus", n, subset, gen.locus_module(n, subset),
                              gen.chosen_wall_pairs(n, subset)])

    def bind(self, lib):
        super().bind(lib)
        for item in self.fixed + self.loci:
            item[5:] = [lib.pbw.PbwSubset.make(item[1], item[2])]

    def rounds(self):
        per_round = 4 * len(self.fixed)
        k = 0
        while True:
            fixed = list(self.fixed)
            self.rng.shuffle(fixed)
            loci = _cycle(self.loci, per_round * k, per_round)
            ops = []
            for f in fixed:
                ops += [loci.pop(), loci.pop(), loci.pop(), loci.pop(), f]
            yield ops
            k += 1

    def warmup(self):
        return [self.loci[0], self.loci[1], self.fixed[0]]

    def call(self, item):
        pbw, cox = self.lib.pbw, self.lib.coxeter
        subset = item[5]
        if item[0] == "fixed":
            return pbw.lagrangian_fixed_points(subset)
        erep, e = pbw.build_Mi(subset)
        w, u = pbw.w_i_word(subset), pbw.u_iprime_word(subset)
        return (erep, e, w, u, cox.is_reduced(w), cox.is_reduced(u),
                pbw.find_interior_point(subset),
                pbw.dynkin_face_violations(subset, pbw.zero_root_vector(item[1]),
                                           strict=True),
                pbw.check_lemma_ui(subset))

    def check(self, item, out):
        n, subset = item[1], item[2]
        if item[0] == "fixed":
            expect(len(out) == item[3], "n=%d i=%r: %d fixed points, expected %d",
                   n, subset, len(out), item[3])
            return
        erep, e, w, u, w_red, u_red, d, violations, lemma = out
        expect(erep.rep.mult == item[3], "n=%d i=%r: wrong locus module", n, subset)
        expect(tuple(e) == tuple(range(1, 2 * n)), "n=%d i=%r: wrong weights", n, subset)
        for word, flag in ((w, w_red), (u, u_red)):
            expect(flag and gen.is_reduced(word.kind, word.m, word.letters),
                   "n=%d i=%r: %s word is not reduced", n, subset, word.kind)
        expect(gen.strictly_inside_pairs(n, subset, dict(d.items())),
               "n=%d i=%r: interior point is not strictly inside", n, subset)
        expect(len(violations) == item[4] and
               all(v["relation"] == ">" for v in violations),
               "n=%d i=%r: %d strict violations of zero, expected %d",
               n, subset, len(violations), item[4])
        summary = lemma["summary"]
        expect(len(lemma["rows"]) == 2 * n == summary["rows"] ==
               summary["agree"] + summary["disagree"] + summary["no_prediction"],
               "n=%d i=%r: lemma report does not have 2n rows", n, subset)


# --- cli-verbs -----------------------------------------------------------------

def child_env(root):
    """The package from the checkout, with its cached bytecode in use as
    for any installed command, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _module_json(n, mult):
    return {"n": n, "mult": [{"i": i, "j": j, "m": m} for (i, j), m in sorted(mult.items())]}


class CliVerbs(Workload):
    """One `python -m sympdeg.cli` process at a time over JSON inputs
    written during set-up: per round one call of each verb, and two more of
    pbw-fixed-points."""

    name = "cli-verbs"
    trace_rounds = 10
    ref_gap_s = 0.0
    VERBS = ("ranks", "rep-of-ranks", "hom", "degen-check", "degen-path",
             "sym-path", "pbw-weyl", "pbw-face", "pbw-fixed-points", "poset",
             "oracle-verify")
    PER_VERB = 12
    TIMEOUT = 60

    def __init__(self, seed, root):
        self.root = root
        self.rng = gen.make_rng(seed, self.name)
        self.work = root / ".perfbench_tmp" / str(os.getpid())
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.env = child_env(root)
        # twice as many inputs drawn as kept: bind() keeps the first PER_VERB
        # of each verb that the in-process run completes
        self.drawn = {verb: [self._make(verb, k) for k in range(2 * self.PER_VERB)]
                      for verb in self.VERBS if verb != "pbw-fixed-points"}
        # every subset of n = 4, in seeded order: output size varies threefold
        subsets = gen.all_subsets(4)
        self.rng.shuffle(subsets)
        self.drawn["pbw-fixed-points"] = [["pbw-fixed-points", "4", ",".join(map(str, s)) or "-"]
                                          for s in subsets]
        self.screened = Counter()

    def _file(self, data):
        path = self.work / ("in%04d.json" % len(list(self.work.iterdir())))
        path.write_text(json.dumps(data))
        return str(path)

    def _make(self, verb, k):
        rng = self.rng
        if verb in ("ranks", "rep-of-ranks", "hom", "degen-check", "degen-path"):
            n = 8 if verb == "degen-path" else rng.randint(4, 8)
            M = gen.random_module(rng, n, rng.randint(3, 6))
            if verb == "ranks":
                return [verb, "--rep", self._file(_module_json(n, M))]
            if verb == "rep-of-ranks":
                return [verb, "--rep", self._file({"n": n, "rows": [list(r) for r in gen.ranks(n, M)]})]
            N = (gen.random_descendant(rng, M, 5) if verb != "hom"
                 else gen.random_module(rng, n, rng.randint(2, 5)))
            if verb == "degen-check" and k % 2:
                M, N = N, M
            return [verb, "--m", self._file(_module_json(n, M)),
                    "--n", self._file(_module_json(n, N))]
        if verb == "sym-path":
            M = gen.random_epsilon_module(rng, 9, 3)
            N = gen.random_sym_descendant(rng, 9, M, 2)
            return [verb, "--m", self._file(_module_json(9, M)),
                    "--n", self._file(_module_json(9, N)), "--type", "odd-neg"]
        if verb in ("pbw-weyl", "pbw-face"):
            n = rng.randint(3, 6)
            subset = ",".join(map(str, gen.random_subset(rng, n))) or "-"
            if verb == "pbw-weyl":
                return [verb, str(n), subset]
            vec = {"n": n, "entries": [{"kind": kind, "i": i, "j": j,
                                        "d": rng.choice((0, 0, -1, 1)) if k % 2 else 0}
                                       for kind, i, j in gen.root_keys(n)]}
            return [verb, str(n), subset, "--rep", self._file(vec)]
        if verb == "poset":
            # odd-neg modules have symmetric dims with an even middle entry
            half = [rng.randint(1, 2) for _ in range(rng.choice((1, 2)))]
            dims = half + [2] + half[::-1]
            return [verb, "--type", "odd-neg", "--dims", ",".join(map(str, dims))]
        return [verb, "--seed", str(rng.randint(0, 10 ** 6)), "--budget", "10"]

    def reference(self):
        """One interpreter start (`python -c pass`): CLI calls drift with
        process start-up, which an in-process loop does not track."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=str(self.root), env=self.env,
                       check=True, timeout=self.TIMEOUT)
        return time.perf_counter() - start

    def unit(self, refs):
        """The faster of the starts timed just before and just after the
        call: start-up speed drifts within a second, and one start in a
        pair is often slowed on its own."""
        return min(refs[-2:])

    def bind(self, lib):
        """Expected outputs: the same verbs run in this process.  An input
        the in-process run fails on (the generic-quotient defect, for
        degen-path) is not kept but tallied by error class for screen()."""
        super().bind(lib)
        self.expected, self.items = {}, {}
        for verb, drawn in self.drawn.items():
            kept = self.items[verb] = []
            for argv in drawn:
                if len(kept) == self.PER_VERB:
                    break
                code, out, err = self.run_in_process(argv)
                if code:
                    self.screened[err.split(":")[0].strip() or "exit%d" % code] += 1
                    continue
                self.expected[tuple(argv)] = code, out, err
                kept.append(argv)

    def screen(self, tally):
        tally.update(self.screened)

    def run_in_process(self, argv):
        """(exit code, stdout, stderr) of sympdeg.cli.run in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.run(list(argv))
        return code, out.getvalue(), err.getvalue()

    def rounds(self):
        # fixed points (the slowest verb) three times per round, so the 90th
        # percentile falls inside their times rather than on an edge
        k = 0
        while True:
            calls = [(v, 3 * k + j) if v == "pbw-fixed-points" else (v, k)
                     for v in self.VERBS for j in range(3 if v == "pbw-fixed-points" else 1)]
            self.rng.shuffle(calls)
            yield [self.items[v][j % len(self.items[v])] for v, j in calls]
            k += 1

    def warmup(self):
        return [self.items["ranks"][0], self.items["pbw-weyl"][0]]

    def _run(self, command):
        done = subprocess.run(command, cwd=str(self.root), env=self.env,
                              capture_output=True, timeout=self.TIMEOUT)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    def call(self, item):
        return self._run([sys.executable, "-m", "sympdeg.cli"] + list(item))

    def call_traced(self, item, tracer):
        record = self.work / "trace.json"
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        out = self._run([sys.executable, child, str(record)] + list(item))
        tracer.merge(json.loads(record.read_text()))
        record.unlink()
        return out

    def check(self, item, out):
        code, stdout, stderr = out
        want_code, want_out, want_err = self.expected[tuple(item)]
        expect(code == want_code, "%s exited %d, expected %d: %s",
               item[0], code, want_code, stderr.strip()[-200:])
        if code:
            expect(stderr.split(":")[0] == want_err.split(":")[0],
                   "%s failed with %r, expected %r", item[0], stderr, want_err)
            return
        got, want = json.loads(stdout), json.loads(want_out)
        if item[0] == "pbw-fixed-points":
            got, want = ((d["n"], d["i"], d["count"]) for d in (got, want))
        expect(got == want, "%s output differs from the in-process result", item[0])

    def failure(self, out):
        code, _, stderr = out
        return (stderr.split(":")[0].strip() or "exit%d" % code) if code else None

    def same(self, a, b):
        return a[:2] == b[:2]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (OrdinaryPaths, SymmetricPeel, PbwLoci, CliVerbs)}


def make(name, seed, root):
    cls = WORKLOADS[name]
    return cls(seed, root) if cls is CliVerbs else cls(seed)
