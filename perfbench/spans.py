"""Span tracing of sympdeg's layers, installed from outside the package.

Tracer.prepare() wraps every public function and method of the layer
modules and rebinds the wrapper at every place the package holds the
original: the defining module, each module that imported it by name
(sympdeg.degen.ranks_of as well as sympdeg.core.ranks_of), the package
namespace, and class attributes such as RankSequence.validate.
install() puts the wrappers in place and uninstall() the originals.

Each call is a span with a parent (the innermost enclosing span).  Spans
are aggregated in memory per name and per parent -> child edge; the raw
spans of the first few operations are kept as well.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("core", "degen", "symdegen", "coxeter", "pbw", "oracle", "cli")

# O(1) accessors and index helpers: wrapping them would cost more than the
# work they do and smear that cost over their callers' self time.
SKIP = {"core.sigma", "core.RankSequence.r", "core.Representation.m",
        "core.Representation.key", "pbw.CRootVector.d"}

# result -> (counter, amount): work a layer reports through its return value
RESULT_COUNTERS = {
    "degen.degeneration_path": lambda out: ("degen.moves_emitted", len(out)),
    "symdegen.sym_degeneration_path":
        lambda out: ("symdegen.peel_steps", len(out) - 1),
    "symdegen.sym_move_refinement":
        lambda out: ("symdegen.sym_move_refinement.inconclusive",
                     int(not isinstance(out, list))),
    "oracle.closure_enumerate": lambda out: ("oracle.closure.states", len(out)),
    "pbw.lagrangian_fixed_points":
        lambda out: ("pbw.fixed_points.emitted", len(out)),
}

RAW_SPAN_LIMIT = 20000


def _targets(modules):
    """(span name, owner, attribute, raw attribute, function) to wrap."""
    out = []
    for layer in LAYERS:
        mod = modules["sympdeg." + layer]
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append(("%s.%s" % (layer, name), mod, name, obj, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in sorted(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        out.append(("%s.%s.%s" % (layer, name, attr), obj, attr, raw, fn))
    return [t for t in out
            if t[0] not in SKIP and not inspect.isgeneratorfunction(t[4])]


class Tracer:
    def __init__(self):
        self.stats = {}        # span name -> [calls, total_s, self_s, raised]
        self.edges = {}        # (parent, child) -> [calls, total_s]
        self.by_root = {}      # (outermost span, span) -> calls
        self.counters = {}
        self.spans = []        # (op, span id, parent id, name, start, end)
        self.op = None         # operation id stamped on raw spans
        self._stack = []       # [name, child_s, span id]
        self._next_id = 0
        self._bindings = []    # (owner, attribute, original, wrapper)

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn, raw):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # the outermost library span; the CLI front end is not a root
            root = next((f[0] for f in stack if not f[0].startswith("cli.")), name)
            tracer._next_id += 1
            frame = [name, 0.0, tracer._next_id]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                span = end - start
                stats[0] += 1
                stats[1] += span
                stats[2] += span - frame[1]
                edge = tracer.edges.setdefault((parent[0] if parent else None, name),
                                               [0, 0.0])
                edge[0] += 1
                edge[1] += span
                if parent is not None:
                    parent[1] += span
                key = (root, name)
                tracer.by_root[key] = tracer.by_root.get(key, 0) + 1
                if tracer.op is not None and len(tracer.spans) < RAW_SPAN_LIMIT:
                    tracer.spans.append((tracer.op, frame[2],
                                         parent[2] if parent else None,
                                         name, start, end))
            if counter is not None:
                tracer.count(*counter(out))
            return out

        if isinstance(raw, classmethod):
            return classmethod(wrapper)
        if isinstance(raw, staticmethod):
            return staticmethod(wrapper)
        return wrapper

    def prepare(self):
        """Build the wrappers and find every binding site among the loaded
        sympdeg modules; install() and uninstall() then only rebind."""
        package = {name: mod for name, mod in list(sys.modules.items())
                   if name == "sympdeg" or name.startswith("sympdeg.")}
        self._bindings = []
        for name, owner, attr, raw, fn in _targets(package):
            wrapped = self._wrap(name, fn, raw)
            if inspect.isclass(owner):
                self._bindings.append((owner, attr, raw, wrapped))
                continue
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, key, fn, wrapped))
        return self

    def install(self):
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, degen, symdegen):
        """Trace the enclosed calls and tally the library's move audits."""
        audits = (("degen", degen.AUDIT), ("symdegen", symdegen.SYM_AUDIT))
        before = [dict(audit) for _, audit in audits]
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            for (prefix, audit), old in zip(audits, before):
                for key in ("verified", "violations"):
                    self.count("%s.audit.%s" % (prefix, key), audit[key] - old[key])

    def record(self):
        """The aggregated trace as plain JSON data."""
        return {
            "spans": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                             "raised": s[3]}
                      for name, s in sorted(self.stats.items()) if s[0]},
            "edges": [{"parent": p, "child": c, "calls": e[0], "total_s": e[1]}
                      for (p, c), e in sorted(self.edges.items(), key=str)],
            "by_root": [{"root": r, "span": n, "calls": c}
                        for (r, n), c in sorted(self.by_root.items())],
            "counters": dict(sorted(self.counters.items())),
        }

    def merge(self, record):
        """Fold a record written by a traced child process into this one."""
        for name, s in record["spans"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            mine[0] += s["calls"]
            mine[1] += s["total_s"]
            mine[2] += s["self_s"]
            mine[3] += s["raised"]
        for e in record["edges"]:
            mine = self.edges.setdefault((e["parent"], e["child"]), [0, 0.0])
            mine[0] += e["calls"]
            mine[1] += e["total_s"]
        for e in record["by_root"]:
            key = (e["root"], e["span"])
            self.by_root[key] = self.by_root.get(key, 0) + e["calls"]
        for key, value in record["counters"].items():
            self.count(key, value)
