"""sympdeg benchmark: seeded workloads in a closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from its src/.
One client sends the next operation only after the previous one
returned.  Every output is checked outside the timed region; a wrong
answer aborts the run (exit 1, "correct": false).  Before timing, each
workload screens its inputs (Workload.screen): an input whose operation
raises a domain error, or for the CLI exits non-zero in-process, is not
timed but tallied by error class and printed, so the generic-quotient
defect stays counted while no timed operation is expected to fail.  A
timed operation that still raises a domain error is a failure, tallied
by error class; a CLI call that exits non-zero where the in-process run
did not is a wrong answer.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds with every layer wrapped (spans.py) and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads
from workloads import WrongAnswer

ROOT = Path(__file__).resolve().parent.parent
LAYERS = spans.LAYERS
SETUPS = (5, 30)         # fewest and most set-ups per run; setup_s is their median
SETUP_MIN_S = 3.0        # set-ups go on until they took this long in all
SETUP_REFS = 3           # reference passes timed on each side of a set-up
REF_NOMINAL_S = 0.01     # seconds per reference pass on the nominal host
MIN_OPS = 100            # latency samples per run, so ten lie beyond p90
REF_WINDOW = 9           # reference samples an operation's scale is taken from
RAW_SPAN_OPS = 5         # traced operations whose raw spans are kept
PROBES = 7               # import probes per traced run
DEADLINE_S = 170

# Host speed on shared machines drifts by up to a third within seconds, and a fixed
# reference task drifts with it.  Times are therefore reported in
# reference passes: each operation's seconds divided by a statistic
# (Workload.unit) of the latest timings of the workload's reference task
# (Workload.reference), sampled between operations.  setup_s is in
# seconds on a nominal host whose in-process reference pass takes
# REF_NOMINAL_S: each set-up's wall time is divided by the reference
# passes timed on both sides of it.
END_TO_END = [
    ("ops_per_ref", "ratio", "higher"),
    ("latency_p50_ref", "ref", "lower"),
    ("latency_p90_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# per-layer metric groups: name -> the span names they add up
GROUPS = {
    "core.ranks_of": ["core.ranks_of"],
    "core.validate": ["core.RankSequence.validate"],
    "core.rep_of": ["core.rep_of"],
    "core.rank_arith": ["core.RankSequence.add", "core.RankSequence.sub",
                        "core.RankSequence.dominates"],
    "degen.degeneration_path": ["degen.degeneration_path"],
    "degen.generic_quotient": ["degen.generic_quotient"],
    "degen.apply_move": ["degen.apply_move"],
    "symdegen.sym_degeneration_path": ["symdegen.sym_degeneration_path"],
    "symdegen.sym_move_refinement": ["symdegen.sym_move_refinement"],
    "symdegen.apply_sym_move": ["symdegen.apply_sym_move"],
    "symdegen.is_epsilon_rep": ["symdegen.is_epsilon_rep"],
    "oracle.closure_enumerate": ["oracle.closure_enumerate"],
    "pbw.lagrangian_fixed_points": ["pbw.lagrangian_fixed_points"],
    "pbw.find_interior_point": ["pbw.find_interior_point"],
    "pbw.dynkin_face_violations": ["pbw.dynkin_face_violations"],
    "pbw.dynkin_face_contains": ["pbw.dynkin_face_contains"],
    "pbw.check_lemma_ui": ["pbw.check_lemma_ui"],
    "pbw.build_Mi": ["pbw.build_Mi"],
    "pbw.words": ["pbw.w_i_word", "pbw.u_iprime_word"],
    "coxeter.evaluate": ["coxeter.evaluate"],
    "coxeter.length": ["coxeter.PermutationA.length",
                       "coxeter.SignedPermutation.length"],
    "coxeter.is_reduced": ["coxeter.is_reduced"],
}

C, S, LO, HI = "count", "s", "lower", "higher"
PER_LAYER = (
    [("core.ranks_of.calls", C, LO), ("core.ranks_of.self_s", S, LO),
     ("core.ranks_of.per_move", "ratio", LO),
     ("core.validate.calls", C, LO), ("core.validate.self_s", S, LO),
     ("core.rep_of.calls", C, LO), ("core.rep_of.self_s", S, LO),
     ("core.rank_arith.calls", C, LO), ("core.rank_arith.self_s", S, LO),
     ("degen.degeneration_path.calls", C, LO),
     ("degen.degeneration_path.self_s", S, LO),
     ("degen.degeneration_path.failed", C, LO),
     ("degen.generic_quotient.calls", C, LO),
     ("degen.generic_quotient.self_s", S, LO),
     ("degen.moves_emitted", C, LO),
     ("degen.apply_move.calls", C, LO), ("degen.apply_move.self_s", S, LO),
     ("degen.audit.verified", C, HI), ("degen.audit.violations", C, LO),
     ("symdegen.sym_degeneration_path.calls", C, LO),
     ("symdegen.sym_degeneration_path.self_s", S, LO),
     ("symdegen.peel_steps", C, LO),
     ("symdegen.sym_move_refinement.calls", C, LO),
     ("symdegen.sym_move_refinement.self_s", S, LO),
     ("symdegen.sym_move_refinement.inconclusive", C, LO),
     ("symdegen.apply_sym_move.calls", C, LO),
     ("symdegen.apply_sym_move.self_s", S, LO),
     ("symdegen.is_epsilon_rep.calls", C, LO),
     ("symdegen.is_epsilon_rep.self_s", S, LO),
     ("symdegen.audit.verified", C, HI), ("symdegen.audit.violations", C, LO),
     ("oracle.closure_enumerate.calls", C, LO),
     ("oracle.closure_enumerate.self_s", S, LO),
     ("oracle.closure.states", C, LO),
     ("oracle.closure.states_per_s", "1/s", HI),
     ("pbw.lagrangian_fixed_points.calls", C, LO),
     ("pbw.lagrangian_fixed_points.self_s", S, LO),
     ("pbw.fixed_points.emitted", C, LO),
     ("pbw.find_interior_point.self_s", S, LO),
     ("pbw.dynkin_face_violations.self_s", S, LO),
     ("pbw.dynkin_face_contains.calls", C, LO),
     ("pbw.dynkin_face_contains.self_s", S, LO),
     ("pbw.check_lemma_ui.self_s", S, LO), ("pbw.build_Mi.self_s", S, LO),
     ("pbw.words.self_s", S, LO),
     ("coxeter.evaluate.calls", C, LO), ("coxeter.evaluate.self_s", S, LO),
     ("coxeter.length.calls", C, LO), ("coxeter.length.self_s", S, LO),
     ("coxeter.is_reduced.calls", C, LO),
     ("cli.interpreter_floor_ms", "ms", LO), ("cli.import_ms", "ms", LO)]
    + [("cli.%s.p50_ms" % verb, "ms", LO) for verb in workloads.CliVerbs.VERBS]
    + [("cli.stdout_bytes", "bytes", LO), ("cli.exit_nonzero", C, LO)]
    + [(layer + field, unit, LO) for layer in LAYERS
       for field, unit in ((".calls", C), (".self_s", S))]
    + [("screen.failed", C, LO), ("trace.overhead_share", "ratio", LO)])


class LibraryMissing(Exception):
    pass


def import_library():
    """(Re-)import sympdeg from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # compile once into src/sympdeg/__pycache__, as an installed package
    # would be; CLI children then start from the same bytecode
    sys.dont_write_bytecode = False
    for name in [m for m in sys.modules if m == "sympdeg" or m.startswith("sympdeg.")]:
        del sys.modules[name]
    try:
        mods = {name: importlib.import_module("sympdeg." + name)
                for name in LAYERS + ("errors",)}
    except ImportError as exc:
        raise LibraryMissing("cannot import sympdeg from %s: %s" % (src, exc))
    where = Path(mods["core"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise LibraryMissing("sympdeg was imported from %s, not %s" % (where, src))
    return SimpleNamespace(**mods)


def attempt(wl, item, tracer=None):
    """Run one operation: (output, error class or None, seconds)."""
    start = time.perf_counter()
    try:
        out = wl.call_traced(item, tracer) if tracer else wl.call(item)
        err = wl.failure(out)
    except wl.lib.errors.SympdegError as exc:
        out, err = None, type(exc).__name__
    return out, err, time.perf_counter() - start


def check(wl, item, out, err):
    """Check an output outside the timed region.  A raised domain error
    leaves no output.  A CLI call that exits non-zero does, and it is
    checked against the in-process exit code and error class, so a verb
    that fails where the in-process run succeeded is a wrong answer."""
    if err is None or out is not None:
        wl.check(item, out)


def settle(wl, item, out, err, tally):
    """Check an operation's output, then tally it by error class if it failed."""
    check(wl, item, out, err)
    if err is not None:
        tally[err] += 1


def setup(name, seed):
    """Fresh set-ups (import, inputs, expected values, warm-up), at least
    SETUPS[0] and SETUP_MIN_S seconds' worth.  Returns the last workload
    and the median set-up time, scaled to the nominal host and raw, in
    seconds."""
    scaled, raw = [], []
    while True:
        refs = [workloads.ref_pass() for _ in range(SETUP_REFS)]
        start = time.perf_counter()
        lib = import_library()
        wl = workloads.make(name, seed, ROOT)
        try:
            wl.bind(lib)
            for item in wl.warmup():
                out, err, _ = attempt(wl, item)
                check(wl, item, out, err)
        except BaseException:
            wl.close()
            raise
        raw.append(time.perf_counter() - start)
        refs += [workloads.ref_pass() for _ in range(SETUP_REFS)]
        scaled.append(raw[-1] / statistics.median(refs) * REF_NOMINAL_S)
        if len(raw) == SETUPS[1] or (len(raw) >= SETUPS[0] and sum(raw) >= SETUP_MIN_S):
            break
        wl.close()
    return wl, statistics.median(scaled), statistics.median(raw)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, seconds, deadline, tally):
    """Closed loop over whole rounds until `seconds` of operation time and
    at least MIN_OPS operations."""
    latencies, scaled, refs = [], [], deque([wl.reference()], maxlen=REF_WINDOW)
    timed, last_ref = 0.0, time.perf_counter()
    for ops in wl.rounds():
        for item in ops:
            out, err, took = attempt(wl, item)
            # a long operation is scaled by samples from both its sides
            if time.perf_counter() - last_ref >= wl.ref_gap_s:
                refs.append(wl.reference())
                last_ref = time.perf_counter()
            latencies.append(took)
            scaled.append(took / wl.unit(list(refs)))
            timed += took
            settle(wl, item, out, err, tally)
            if time.perf_counter() > deadline:
                break
        if (timed >= seconds and len(latencies) >= MIN_OPS) or time.perf_counter() > deadline:
            break
    done = len(latencies) - sum(tally.values())
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliVerbs) else resource.RUSAGE_SELF
    raw = {"ops_per_s": done / timed,
           "latency_p50_ms": statistics.median(latencies) * 1e3,
           "latency_p90_ms": quantile(latencies, 90) * 1e3}
    return len(latencies), raw, {
        "ops_per_ref": done / sum(scaled),
        "latency_p50_ref": statistics.median(scaled),
        "latency_p90_ref": quantile(scaled, 90),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def cli_import_ms():
    """Median time to import sympdeg.cli, timed inside fresh interpreters
    (after one warm-up start), so interpreter start-up is not subtracted."""
    code = ("import time; t = time.perf_counter(); import sympdeg.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                                  env=workloads.child_env(ROOT), capture_output=True,
                                  text=True, check=True, timeout=60).stdout)
             for _ in range(PROBES + 1)][1:]
    return statistics.median(times) * 1e3


def trace(wl, name, seed, seconds, deadline, tally):
    """A fixed number of rounds; each operation runs plain and traced, in
    alternating order, and both outputs must agree."""
    cli = isinstance(wl, workloads.CliVerbs)
    extra = {"cli.interpreter_floor_ms": 0.0, "cli.import_ms": cli_import_ms() if cli else 0.0,
             "cli.stdout_bytes": 0, "cli.exit_nonzero": 0}
    tracer = spans.Tracer().prepare()
    verb_ms, floor_ms = {}, []
    plain_s = traced_s = 0.0
    attempted = 0
    rounds = max(1, round(wl.trace_rounds * seconds / 15.0))
    for _, ops in zip(range(rounds), wl.rounds()):
        for item in ops:
            got = {}
            for traced in ((False, True) if attempted % 2 == 0 else (True, False)):
                tracer.op = attempted if traced and attempted < RAW_SPAN_OPS else None
                got[traced] = attempt(wl, item, tracer if traced else None)
            (plain, err, took), (traced_out, traced_err, traced_took) = got[False], got[True]
            plain_s += took
            traced_s += traced_took
            if err != traced_err or ((err is None or plain is not None)
                                     and not wl.same(plain, traced_out)):
                raise WrongAnswer("traced and untraced outputs differ on %r" % (item[:3],))
            check(wl, item, traced_out, traced_err)
            settle(wl, item, plain, err, tally)
            if cli:
                # the verb's own cost, without interpreter start-up and import
                start = time.perf_counter()
                wl.run_in_process(item)
                verb_ms.setdefault(item[0], []).append((time.perf_counter() - start) * 1e3)
                floor_ms.append(wl.reference() * 1e3)
                extra["cli.stdout_bytes"] += len(plain[1].encode())
                extra["cli.exit_nonzero"] += plain[0] != 0
            attempted += 1
            if time.perf_counter() > deadline:
                break
    for verb in workloads.CliVerbs.VERBS:
        extra["cli.%s.p50_ms" % verb] = statistics.median(verb_ms.get(verb, [0.0]))
    extra["cli.interpreter_floor_ms"] = statistics.median(floor_ms or [0.0])
    extra["trace.overhead_share"] = traced_s / plain_s - 1.0
    record = tracer.record()
    record["raw_spans"] = tracer.spans
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / ("trace-%s-seed%d.json" % (name, seed))).write_text(json.dumps(record))
    return attempted, layer_metrics(tracer, extra)


def layer_metrics(tracer, extra):
    stats, counters = tracer.stats, tracer.counters

    def agg(names, field):
        return sum(stats[n][field] for n in names if n in stats)

    values = dict(extra)
    for group, names in GROUPS.items():
        values[group + ".calls"] = agg(names, 0)
        values[group + ".self_s"] = agg(names, 2)
    values["degen.degeneration_path.failed"] = agg(["degen.degeneration_path"], 3)
    for key in ("degen.moves_emitted", "symdegen.peel_steps",
                "symdegen.sym_move_refinement.inconclusive", "oracle.closure.states",
                "pbw.fixed_points.emitted", "degen.audit.verified",
                "degen.audit.violations", "symdegen.audit.verified",
                "symdegen.audit.violations"):
        values[key] = counters.get(key, 0)
    steps = values["degen.moves_emitted"] + values["symdegen.peel_steps"]
    under_paths = sum(tracer.by_root.get((root, "core.ranks_of"), 0)
                      for root in ("degen.degeneration_path",
                                   "symdegen.sym_degeneration_path"))
    values["core.ranks_of.per_move"] = under_paths / steps if steps else 0.0
    closure_s = agg(["oracle.closure_enumerate"], 1)
    values["oracle.closure.states_per_s"] = (values["oracle.closure.states"] / closure_s
                                             if closure_s else 0.0)
    for layer in LAYERS:
        names = [n for n in stats if n.startswith(layer + ".")]
        values[layer + ".calls"] = agg(names, 0)
        values[layer + ".self_s"] = agg(names, 2)
    return values


def run_one(args):
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    tally, screened = Counter(), Counter()
    attempted, raw, screen_s = 0, {}, 0.0
    try:
        wl, setup_s, raw_setup_s = setup(args.workload, args.seed)
        try:
            screen_start = time.perf_counter()
            wl.screen(screened)
            screen_s = time.perf_counter() - screen_start
            if args.trace:
                attempted, values = trace(wl, args.workload, args.seed,
                                          args.seconds, deadline, tally)
                values["screen.failed"] = sum(screened.values())
                specs = PER_LAYER
            else:
                attempted, raw, values = measure(wl, args.seconds, deadline, tally)
                values["setup_s"] = setup_s
                raw["setup_s"] = raw_setup_s
                specs = END_TO_END
        finally:
            wl.close()
    except WrongAnswer as exc:
        print("WRONG ANSWER: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": sum(tally.values()), "metrics": {}}))
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    for name, unit, _ in specs:
        print("%-42s %16.6f %s" % (name, values[name], unit))
    print("# workload %s seed %d: %d ops attempted (latency samples), %d failed %s"
          % (args.workload, args.seed, attempted, sum(tally.values()),
             json.dumps(dict(sorted(tally.items())))))
    print("# screened out before timing (%.3f s): %d inputs %s"
          % (screen_s, sum(screened.values()), json.dumps(dict(sorted(screened.items())))))
    if raw:
        print("# host-speed dependent: %.3f ops/s, latency p50 %.3f ms, p90 %.3f ms,"
              " set-up %.3f s" % (raw["ops_per_s"], raw["latency_p50_ms"],
                                  raw["latency_p90_ms"], raw["setup_s"]))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": sum(tally.values()), "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is that workload's."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=str(ROOT), capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or done.returncode
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except LibraryMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
