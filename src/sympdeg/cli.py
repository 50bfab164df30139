"""Command line front end.

One verb per library operation.  Inputs are JSON files, outputs are JSON
on stdout unless a verb-specific renderer (--table, --dot, or the ASCII
coefficient drawing) is selected.  Exit code 2 on argument errors and on
JSON input of the wrong shape, 1 on domain errors (the error class name
is printed on stderr), 0 otherwise.

Arguments are declared once, in VERBS.  A plain call is read from that
table directly (_quick_args); help, and any call it does not read, goes
through argparse, which is imported only then.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from types import SimpleNamespace
from typing import Iterator, List

from . import core, degen, oracle, pbw, symdegen
from .coxeter import WeylWord, evaluate, word_to_str
from .errors import InstanceTooLarge, MalformedInput, MismatchedType, SympdegError

TYPE_NAMES = {
    "odd-neg": (1, -1),
    "even-pos": (0, 1),
    "odd-pos": (1, 1),
    "even-neg": (0, -1),
}
# every (n % 2, epsilon) pair names exactly one type
_TYPE_OF = {key: name for name, key in TYPE_NAMES.items()}

# pbw-fixed-points --list prints every point only up to this count; it
# keeps n <= 5 and n = 6 with the empty subset (46,080 points) listable
MAX_LISTED_POINTS = 250_000
# pbw-face refuses a report, weak or strict, of more broken constraints
# than this, before it prints either; each one listed in both reports
# costs about 0.6 KB of peak memory
MAX_REPORTED_ROWS = 25_000
# poset refuses more epsilon modules than this before it compares every
# pair and reduces the order transitively, in cubic time
MAX_POSET_NODES = 100
# the verbs that build a rank table refuse a module whose table, n(n+1)/2
# entries, is larger than this before building it; n = 1999 still passes
MAX_RANK_ENTRIES = 2_000_000
# pbw-weyl and pbw-lemma-ui refuse a locus whose type-A word u, n(2n-1)
# letters and the longer of its two words, has more letters than this
# before building any word; n = 707 still passes
MAX_WORD_LETTERS = 1_000_000
# pbw-interior and pbw-face refuse a locus whose face has more pair
# constraints, (2n-1)(n-1)n/3, than this before building the face or a
# root vector; n = 91 still passes
MAX_FACE_ROWS = 500_000
# sym-moves refuses a source of total dimension D on n vertices with
# D (n(n+1)/2 + 1000) above this before any peel step: a chain has at
# most D/2 paired moves, each auditing two n(n+1)/2-entry tables at a
# fixed cost of about 1000 more entries
MAX_SYM_MOVES_WORK = 50_000_000
# with these guards, every accepted call of the verbs they cover peaks
# below 225 MB.  Peak RSS of one CLI process on a 2-core x86-64 host:
# ranks at n = 1999 about 45 MB, pbw-weyl at n = 707 with every wall
# about 150 MB, pbw-interior at n = 91 with every wall about 41 MB, and
# pbw-face at n = 91 about 55 MB when both its reports hold close to
# MAX_REPORTED_ROWS rows (about 42 MB with none)


def _load(path: str):
    # the decoder recurses once per nesting level
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON input nested too deeply") from None


def _tabled_rep(path: str) -> core.Representation:
    """The module in the JSON file at path, for a verb that builds its rank
    table: InstanceTooLarge before any table is built when the table
    would have more than MAX_RANK_ENTRIES entries."""
    rep = core.rep_from_json(_load(path))
    entries = rep.n * (rep.n + 1) // 2
    if entries > MAX_RANK_ENTRIES:
        raise InstanceTooLarge("a rank table on %d vertices has %d entries, more "
                               "than the ranks guard %d"
                               % (rep.n, entries, MAX_RANK_ENTRIES))
    return rep


def _worded_subset(args) -> pbw.PbwSubset:
    """The locus of a verb that builds its type-A word: InstanceTooLarge
    before any word is built when the word would have more than
    MAX_WORD_LETTERS letters."""
    subset = pbw.PbwSubset.make(args.n, args.i)
    letters = subset.n * (2 * subset.n - 1)
    if letters > MAX_WORD_LETTERS:
        raise InstanceTooLarge("the type-A word of a locus with n=%d has %d letters, "
                               "more than the words guard %d"
                               % (subset.n, letters, MAX_WORD_LETTERS))
    return subset


def _faced_subset(args) -> pbw.PbwSubset:
    """The locus of a verb that builds its face: InstanceTooLarge before
    the face or any root vector is built when the face would have more
    than MAX_FACE_ROWS pair constraints."""
    subset = pbw.PbwSubset.make(args.n, args.i)
    n = subset.n
    rows = (2 * n - 1) * (n - 1) * n // 3
    if rows > MAX_FACE_ROWS:
        raise InstanceTooLarge("the face of a locus with n=%d has %d pair constraints, "
                               "more than the face guard %d" % (n, rows, MAX_FACE_ROWS))
    return subset


def _emit(obj) -> None:
    # json.dumps would hold the whole text, and one write per encoder token
    # (json.dump) is slow on a pipe: the tokens go out joined in batches
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    sys.stdout.writelines(iter(lambda: "".join(itertools.islice(tokens, 4096)), ""))
    sys.stdout.write("\n")


def _sym_type(n: int, name: str) -> symdegen.SymmetricType:
    parity, eps = TYPE_NAMES[name]
    if n % 2 != parity:
        raise MismatchedType("type %s needs n %% 2 == %d, got n=%d"
                             % (name, parity, n))
    return symdegen.SymmetricType(n, eps)


def _type_name(sym: symdegen.SymmetricType) -> str:
    return _TYPE_OF[(sym.n % 2, sym.epsilon)]


def _int_list(text: str) -> tuple:
    """Comma separated integers.  Other text is a bad argument: argparse
    prints the usage and one error line and exits 2."""
    try:
        return tuple([int(x) for x in text.split(",")])
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(
            "expected comma separated integers, got %r" % text) from None


def _count(text: str) -> int:
    """A non-negative integer, else a bad argument as for _int_list."""
    try:
        value = int(text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return value


def _subset_list(text: str) -> tuple:
    return () if text in ("", "-") else _int_list(text)


# --- rank matrix and root vector JSON ----------------------------------------

def _dvec_to_json(d: pbw.CRootVector) -> dict:
    return {"n": d.n, "entries": [
        {"kind": kind, "i": i, "j": j, "d": value}
        for (kind, i, j), value in d.items()]}


def _dvec_from_json(data: dict) -> pbw.CRootVector:
    """The vector of {"n": int, "entries": [{"kind": str, "i": int, "j": int,
    "d": int}]}.  Raises MalformedInput on any other shape; the root keys
    are checked by CRootVector."""
    n = core._json_field(data, "n", "integer")
    entries = {}
    for k, row in enumerate(core._json_field(data, "entries", "array")):
        path = "entries[%d]" % k
        key = (core._json_field(row, "kind", "string", path),
               core._json_field(row, "i", "integer", path),
               core._json_field(row, "j", "integer", path))
        entries[key] = core._json_field(row, "d", "integer", path)
    return pbw.CRootVector(n, entries)


# --- renderers ----------------------------------------------------------------

def _matrix_lines(ranks: core.RankSequence, width: int) -> List[str]:
    lines = []
    for i, row in enumerate(ranks.rows(), 1):
        pad = " " * ((width + 1) * (i - 1))
        lines.append(pad + " ".join(str(x).rjust(width) for x in row))
    return lines


def _render_sym_path(steps: List[symdegen.DegenStep], n: int) -> str:
    tables = [(step.m_ranks, step.n_ranks, core.ranks_of(step.Z.rep)) for step in steps]
    width = 1
    for ranks in itertools.chain.from_iterable(tables):
        for row in ranks.rows():
            for x in row:
                width = max(width, len(str(x)))
    out: List[str] = []
    for index, (step, table) in enumerate(zip(steps, tables)):
        if step.L is None:
            out.append("== step %d: terminal ==" % index)
        else:
            a, b = step.support_interval
            out.append("== step %d: peel %s on [%d, %d] =="
                       % (index, symdegen.peel_label(step.L, n), a, b))
        for label, ranks in zip("MNZ", table):
            out.append("%s(%d):" % (label, index))
            out.extend(" " + line for line in _matrix_lines(ranks, width))
    return "\n".join(out) + "\n"


def _render_coeff(rep: core.Representation) -> str:
    slot = len(str(rep.n)) + 2
    header = "".join(str(v).ljust(slot) for v in range(1, rep.n + 1)).rstrip()
    lines = [header]
    for (i, j) in sorted(rep.mult):
        for _ in range(rep.m(i, j)):
            row = ""
            for v in range(1, rep.n + 1):
                if i <= v < j:
                    row += "o" + "-" * (slot - 1)
                elif v == j:
                    row += "o" + " " * (slot - 1)
                else:
                    row += " " * slot
            lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def _word_report(word: WeylWord) -> dict:
    perm = evaluate(word)
    length = perm.length()
    return {
        "kind": word.kind,
        "m": word.m,
        "letters": word.letters,
        "word": word_to_str(word),
        "images": perm.images,
        "length": length,
        # is_reduced, without evaluating the word a second time
        "reduced": length == len(word.letters),
    }


# --- verb handlers ------------------------------------------------------------

def _cmd_ranks(args) -> int:
    _emit(core.ranks_to_json(core.ranks_of(_tabled_rep(args.rep))))
    return 0


def _cmd_rep_of_ranks(args) -> int:
    ranks = core.ranks_from_json(_load(args.rep))
    _emit(core.rep_to_json(core.rep_of(ranks)))
    return 0


def _cmd_dual(args) -> int:
    rep = core.rep_from_json(_load(args.rep))
    _emit(core.rep_to_json(core.dual(rep)))
    return 0


def _cmd_hom(args) -> int:
    m = core.rep_from_json(_load(args.m))
    n = core.rep_from_json(_load(args.n))
    _emit({"hom": core.hom_dim(m, n)})
    return 0


def _cmd_ext(args) -> int:
    m = core.rep_from_json(_load(args.m))
    n = core.rep_from_json(_load(args.n))
    _emit({"ext": core.ext_dim(m, n)})
    return 0


def _cmd_check_eps(args) -> int:
    rep = core.rep_from_json(_load(args.rep))
    sym = _sym_type(rep.n, args.type)
    _emit({"n": rep.n, "type": args.type, "split": sym.split,
           "valid": symdegen.is_epsilon_rep(rep, sym)})
    return 0


def _cmd_degen_check(args) -> int:
    m = _tabled_rep(args.m)
    n = _tabled_rep(args.n)
    _emit({"degenerates": degen.degenerates(m, n)})
    return 0


def _cmd_degen_path(args) -> int:
    m = _tabled_rep(args.m)
    n = _tabled_rep(args.n)
    path = degen.degeneration_path(m, n)
    _emit({
        "n": m.n,
        "start": core.rep_to_json(m),
        "target": core.rep_to_json(n),
        "path": [{"move": degen.move_to_json(move),
                  "after": core.rep_to_json(rep)} for move, rep in path],
    })
    return 0


def _sym_pair(args):
    m = _tabled_rep(args.m)
    n = _tabled_rep(args.n)
    sym = _sym_type(m.n, args.type)
    return (symdegen.EpsilonRep(m, sym), symdegen.EpsilonRep(n, sym))


def _cmd_sym_check(args) -> int:
    em, en = _sym_pair(args)
    _emit({"degenerates": symdegen.sym_degenerates(em, en)})
    return 0


def _cmd_sym_path(args) -> int:
    em, en = _sym_pair(args)
    steps = symdegen.sym_degeneration_path(em, en)
    if args.table:
        sys.stdout.write(_render_sym_path(steps, em.rep.n))
        return 0
    n = em.rep.n
    _emit({
        "n": n,
        "type": args.type,
        "steps": [{
            "index": index,
            "peel": (None if step.L is None
                     else {"i": step.L[0], "j": step.L[1],
                           "label": symdegen.peel_label(step.L, n)}),
            "support": step.support_interval,
            "m_ranks": core.ranks_to_json(step.m_ranks),
            "n_ranks": core.ranks_to_json(step.n_ranks),
            "z_ranks": core.ranks_to_json(core.ranks_of(step.Z.rep)),
        } for index, step in enumerate(steps)],
    })
    return 0


def _cmd_sym_moves(args) -> int:
    em, en = _sym_pair(args)
    n = em.rep.n
    dim = sum(m * (j - i + 1) for (i, j), m in em.rep.mult.items())
    work = dim * (n * (n + 1) // 2 + 1000)
    if work > MAX_SYM_MOVES_WORK:
        raise InstanceTooLarge("paired moves from total dimension %d on %d vertices have a work "
                               "bound of %d, more than the sym-moves guard %d"
                               % (dim, n, work, MAX_SYM_MOVES_WORK))
    found = symdegen.sym_move_refinement(em, en)
    _emit({"status": "found", "moves": [degen.move_to_json(mv) for mv in found]})
    return 0


def _cmd_pbw_build(args) -> int:
    subset = pbw.PbwSubset.make(args.n, args.i)
    erep, e = pbw.build_Mi(subset)
    _emit({
        "n": subset.n,
        "i": subset.i,
        "quiver_n": erep.rep.n,
        "type": _type_name(erep.sym),
        "module": core.rep_to_json(erep.rep),
        "dims": core.dim_vector(erep.rep),
        "e": e,
    })
    return 0


def _cmd_pbw_weyl(args) -> int:
    subset = _worded_subset(args)
    _emit({
        "n": subset.n,
        "i": subset.i,
        "sigma_i": pbw.sigma_i_map(subset),
        "iprime": pbw.iprime(subset),
        "ell": pbw.ell_sequence(subset),
        "h": pbw.h_sequence(subset),
        "theta": pbw.theta(subset),
        "w": _word_report(pbw.w_i_word(subset)),
        "u": _word_report(pbw.u_iprime_word(subset)),
    })
    return 0


def _capped(rows: Iterator[dict]) -> list:
    """The rows, read only up to one past MAX_REPORTED_ROWS."""
    return list(itertools.islice(rows, MAX_REPORTED_ROWS + 1))


def _guarded_report(rows: list, strict: bool) -> list:
    """rows, or InstanceTooLarge, before any JSON is written, when the
    report is longer than MAX_REPORTED_ROWS."""
    if len(rows) > MAX_REPORTED_ROWS:
        raise InstanceTooLarge("the %s face report of this vector has more than %d rows, "
                               "the report guard" % ("strict" if strict else "weak",
                                                     MAX_REPORTED_ROWS))
    return rows


def _cmd_pbw_face(args) -> int:
    subset = _faced_subset(args)
    d = _dvec_from_json(_load(args.rep))
    vals = pbw._root_values(subset, d)
    # each report is its pair rows, then the exchange rows, the same in
    # both modes: they are walked once, after the weak pair rows pass
    weak = _guarded_report(_capped(pbw._pair_violations(subset, vals, False)), False)
    exchange = _capped(pbw._exchange_violations(subset.n, vals))
    violations = _guarded_report(weak + exchange, False)
    violations_strict = _guarded_report(
        _capped(pbw._pair_violations(subset, vals, True)) + exchange, True)
    # the face contains d exactly when d breaks none of its constraints
    _emit({
        "n": subset.n,
        "i": subset.i,
        "contains": not violations,
        "contains_strict": not violations_strict,
        "violations": violations,
        "violations_strict": violations_strict,
    })
    return 0


def _cmd_pbw_interior(args) -> int:
    subset = _faced_subset(args)
    _emit(_dvec_to_json(pbw.find_interior_point(subset)))
    return 0


def _count_too_long(n: int, digits: int) -> InstanceTooLarge:
    return InstanceTooLarge(
        "the fixed-point count for n=%d has more than %d digits, the "
        "interpreter's limit for printing an integer" % (n, digits))


def _cmd_pbw_fixed_points(args) -> int:
    subset = pbw.PbwSubset.make(args.n, args.i)
    n = subset.n
    # 0 where the interpreter has no int-to-string limit (or lifts it)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    limit = 10 ** digits if digits else None
    # each partial chain down to level k of the count's recurrence extends
    # to at least k! full chains (_chain_totals), so the count is refused at
    # the first level where that bound reaches the limit: 2^n n! at level
    # n, before any step, and the count itself at level 0
    for level, total in enumerate(pbw._chain_totals(subset)):
        if limit is not None and sum(total) * math.factorial(n - level) >= limit:
            raise _count_too_long(n, digits)
    count = total[0]
    report = {"n": subset.n, "i": subset.i, "count": count}
    if args.list:
        if count > MAX_LISTED_POINTS:
            raise InstanceTooLarge(
                "%d fixed points exceed the --list guard %d; drop --list "
                "for the count alone" % (count, MAX_LISTED_POINTS))
        report["points"] = [fp.subsets for fp in pbw.lagrangian_fixed_points(subset)]
    _emit(report)
    return 0


def _cmd_pbw_lemma_ui(args) -> int:
    _emit(pbw.check_lemma_ui(_worded_subset(args)))
    return 0


def _cmd_poset(args) -> int:
    sym = _sym_type(len(args.dims), args.type)
    nodes = sorted(itertools.islice(symdegen._epsilon_modules(args.dims, sym),
                                    MAX_POSET_NODES + 1), key=core.Representation.key)
    if len(nodes) > MAX_POSET_NODES:
        raise InstanceTooLarge("more than %d epsilon modules exceed the poset guard"
                               % MAX_POSET_NODES)
    ranks = [core.ranks_of(rep) for rep in nodes]
    above = [[a != b and ranks[a].dominates(ranks[b])
              for b in range(len(nodes))] for a in range(len(nodes))]
    edges = []
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            if not above[a][b]:
                continue
            if any(above[a][c] and above[c][b] for c in range(len(nodes))):
                continue
            edges.append((a, b))
    if args.dot:
        lines = ["digraph degenerations {"]
        for index, rep in enumerate(nodes):
            label = " + ".join(
                "%dU[%d,%d]" % (m, i, j) if m > 1 else "U[%d,%d]" % (i, j)
                for (i, j), m in sorted(rep.mult.items()))
            lines.append('  n%d [label="%s"];' % (index, label))
        for a, b in edges:
            lines.append("  n%d -> n%d;" % (a, b))
        lines.append("}")
        print("\n".join(lines))
        return 0
    _emit({
        "type": args.type,
        "dims": args.dims,
        "nodes": [core.rep_to_json(rep) for rep in nodes],
        "edges": edges,
    })
    return 0


def _cmd_oracle_verify(args) -> int:
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.budget):
        n = rng.randint(2, 6)
        mult = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            mult[(i, j)] = mult.get((i, j), 0) + rng.randint(1, 2)
        rep = core.Representation(n, mult)
        real = oracle.realize_matrices(rep)
        if core.ranks_of(rep) != oracle.rank_seq_bruteforce(real):
            mismatches += 1
        other = core.Representation(n, {(rng.randint(1, n), n): 1})
        if core.hom_dim(rep, other) != oracle.hom_dim_bruteforce(rep, other):
            mismatches += 1
        lhs = core.hom_dim(rep, other) - core.ext_dim(rep, other)
        if lhs != core.euler_form(core.dim_vector(rep),
                                  core.dim_vector(other)):
            mismatches += 1
    _emit({"seed": args.seed, "budget": args.budget,
           "mismatches": mismatches})
    return 1 if mismatches else 0


def _cmd_render_coeff(args) -> int:
    rep = core.rep_from_json(_load(args.rep))
    sys.stdout.write(_render_coeff(rep))
    return 0


# --- parser -------------------------------------------------------------------

_REP = ("--rep", {"required": True})
_M_N = (("--m", {"required": True}), ("--n", {"required": True}))
_TYPE = ("--type", {"required": True, "choices": sorted(TYPE_NAMES)})
_PBW = (("n", {"type": int, "help": "flag rank n"}),
        ("i", {"nargs": "?", "default": "", "type": _subset_list,
               "help": "comma separated subset of 1..n-1, empty for none"}))

# verb -> (handler, help, arguments as (name, add_argument keywords))
VERBS = {
    "ranks": (_cmd_ranks, "rank matrix of a module", (_REP,)),
    "rep-of-ranks": (_cmd_rep_of_ranks, "module of a rank matrix",
                     (("--rep", {"required": True,
                                 "help": "rank matrix JSON file"}),)),
    "dual": (_cmd_dual, "reflection dual of a module", (_REP,)),
    "hom": (_cmd_hom, "dimension of Hom(M, N)", _M_N),
    "ext": (_cmd_ext, "dimension of Ext^1(M, N)", _M_N),
    "check-eps": (_cmd_check_eps, "test compatibility with a symmetric type",
                  (_REP, _TYPE)),
    "degen-check": (_cmd_degen_check, "does M degenerate to N", _M_N),
    "degen-path": (_cmd_degen_path, "cut/shift move chain from M to N", _M_N),
    "sym-check": (_cmd_sym_check, "does M degenerate to N symmetrically",
                  _M_N + (_TYPE,)),
    "sym-path": (_cmd_sym_path, "peel sequence from M to N in a split type",
                 _M_N + (_TYPE, ("--table", {
                     "action": "store_true",
                     "help": "render as a text table instead of JSON"}))),
    "sym-moves": (_cmd_sym_moves, "symmetric move chain from M to N, paired moves read off the peel",
                  _M_N + (_TYPE,)),
    "pbw-build": (_cmd_pbw_build, "distinguished module of a locus", _PBW),
    "pbw-weyl": (_cmd_pbw_weyl, "index sequences and Weyl words of a locus",
                 _PBW),
    "pbw-face": (_cmd_pbw_face, "face membership of a root vector",
                 _PBW + (("--rep", {"required": True,
                                    "help": "root vector JSON file"}),)),
    "pbw-interior": (_cmd_pbw_interior, "strict interior point of a face",
                     _PBW),
    "pbw-fixed-points": (_cmd_pbw_fixed_points,
                         "fixed coordinate flags of the Lagrangian part",
                         _PBW + (("--list", {
                             "action": "store_true",
                             "help": "print the points too (at most %d)"
                                     % MAX_LISTED_POINTS}),)),
    "pbw-lemma-ui": (_cmd_pbw_lemma_ui, "agreement report for the type-A word",
                     _PBW),
    "poset": (_cmd_poset, "symmetric degeneration order at fixed dims",
              (_TYPE,
               ("--dims", {"required": True, "type": _int_list,
                           "help": "comma separated"}),
               ("--dot", {"action": "store_true", "help": "emit DOT digraph"}))),
    "oracle-verify": (_cmd_oracle_verify,
                      "cross-check formulas against the matrix oracle",
                      (("--seed", {"type": int, "default": 0}),
                       ("--budget", {"type": _count, "default": 50}))),
    "render-coeff": (_cmd_render_coeff,
                     "ASCII coefficient quiver, one row per segment", (_REP,)),
}


def _build_parser():
    """The argparse.ArgumentParser of every verb.  Only calls that
    _quick_args does not read build it: help, and calls argparse must
    report an error for."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="sympdeg",
        description="degeneration calculus for type-A quiver "
                    "representations and their symmetric variants")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, help_text, arguments) in VERBS.items():
        sub = subs.add_parser(verb, help=help_text)
        for name, options in arguments:
            sub.add_argument(name, **options)
        sub.set_defaults(func=func)
    return parser


def _is_value(token: str) -> bool:
    # a token argparse reads as a value whatever the verb: a lone "-" is one
    return not token.startswith("-") or token == "-"


def _converted(options: dict, text: str):
    """text through the argument's type, checked against its choices; raises
    where argparse reports a bad argument."""
    value = options.get("type", str)(text)
    if "choices" in options and value not in options["choices"]:
        raise ValueError("invalid choice: %r" % (value,))
    return value


def _quick_args(argv):
    """The namespace _build_parser().parse_args(argv) returns, read off
    VERBS without argparse, for a plain call: a verb, its positionals in
    order, then each of its flags at most once, spelled in full, a
    store_true flag alone and any other with one value (in its choices),
    and every required flag given.  None for any other call: help,
    abbreviations, --flag=value, --, repeated flags, values that start
    with "-" (a lone "-" aside), extra tokens, positionals after a flag,
    a missing required flag, and any value its type rejects.  argparse
    then parses the call, and reports an error in its own words.

    An argument's kind is what VERBS declares: a name starting with "--"
    is a flag, a store_true switch when it has an action; a positional
    with nargs="?" takes its default when no value is left; any other
    positional needs a value."""
    if not argv or argv[0] not in VERBS:
        return None
    func, _, arguments = VERBS[argv[0]]
    tokens = argv[1:]
    values = {"verb": argv[0], "func": func}
    flags = {}
    at = 0
    try:
        for name, options in arguments:
            if name.startswith("--"):
                flags[name] = (name[2:].replace("-", "_"), options)
            elif at < len(tokens) and _is_value(tokens[at]):
                values[name] = _converted(options, tokens[at])
                at += 1
            elif options.get("nargs") == "?":
                values[name] = _converted(options, options["default"])
            else:
                return None
        while at < len(tokens):
            dest, options = flags.pop(tokens[at], (None, None))
            if options is None:
                return None
            if "action" in options:
                values[dest] = True
                at += 1
            elif at + 1 < len(tokens) and _is_value(tokens[at + 1]):
                values[dest] = _converted(options, tokens[at + 1])
                at += 2
            else:
                return None
        # the flags not given: argparse's defaults
        for dest, options in flags.values():
            if options.get("required"):
                return None
            values[dest] = options.get("default", False if "action" in options else None)
    except Exception:
        # only a type converter raises here, and argparse (whose
        # ArgumentTypeError is one such exception) re-runs it and reports it
        return None
    return SimpleNamespace(**values)


def run(argv) -> int:
    args = _quick_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except (SympdegError, ValueError, OSError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2 if isinstance(exc, MalformedInput) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
