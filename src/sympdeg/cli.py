"""Command line front end.

One verb per library operation.  Inputs are JSON files, outputs are JSON
on stdout unless a verb-specific renderer (--table, --dot, or the ASCII
coefficient drawing) is selected.  Exit code 2 on argument errors and on
JSON input of the wrong shape, 1 on domain errors (the error class name
is printed on stderr), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List

from . import core, degen, oracle, pbw, symdegen
from .coxeter import WeylWord, evaluate, is_reduced, word_to_str
from .errors import MalformedInput, MismatchedType, SympdegError

TYPE_NAMES = {
    "odd-neg": (1, -1),
    "even-pos": (0, 1),
    "odd-pos": (1, 1),
    "even-neg": (0, -1),
}


def _load(path: str):
    with open(path) as handle:
        return json.load(handle)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _sym_type(n: int, name: str) -> symdegen.SymmetricType:
    parity, eps = TYPE_NAMES[name]
    if n % 2 != parity:
        raise MismatchedType("type %s needs n %% 2 == %d, got n=%d"
                             % (name, parity, n))
    return symdegen.SymmetricType(n, eps)


def _type_name(sym: symdegen.SymmetricType) -> str:
    for name, (parity, eps) in TYPE_NAMES.items():
        if sym.n % 2 == parity and sym.epsilon == eps:
            return name
    raise AssertionError("unreachable")


def _parse_subset(n: int, text: str) -> pbw.PbwSubset:
    if text in ("", "-"):
        return pbw.PbwSubset.make(n, ())
    return pbw.PbwSubset.make(n, [int(x) for x in text.split(",")])


# --- rank matrix and root vector JSON ----------------------------------------

def _dvec_to_json(d: pbw.CRootVector) -> dict:
    return {"n": d.n, "entries": [
        {"kind": kind, "i": i, "j": j, "d": value}
        for (kind, i, j), value in d.items()]}


def _dvec_from_json(data: dict) -> pbw.CRootVector:
    entries = {(row["kind"], row["i"], row["j"]): row["d"]
               for row in data["entries"]}
    return pbw.CRootVector(data["n"], entries)


# --- renderers ----------------------------------------------------------------

def _matrix_lines(ranks: core.RankSequence, width: int) -> List[str]:
    lines = []
    for i, row in enumerate(ranks.rows(), 1):
        pad = " " * ((width + 1) * (i - 1))
        lines.append(pad + " ".join(str(x).rjust(width) for x in row))
    return lines


def _render_sym_path(steps: List[symdegen.DegenStep], n: int) -> str:
    width = 1
    for step in steps:
        for ranks in (step.m_ranks, step.n_ranks, step.z_ranks):
            for row in ranks.rows():
                for x in row:
                    width = max(width, len(str(x)))
    out: List[str] = []
    for index, step in enumerate(steps):
        if step.L is None:
            out.append("== step %d: terminal ==" % index)
        else:
            a, b = step.support_interval
            out.append("== step %d: peel %s on [%d, %d] =="
                       % (index, symdegen.peel_label(step.L, n), a, b))
        for label, ranks in (("M", step.m_ranks), ("N", step.n_ranks),
                             ("Z", step.z_ranks)):
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
    return {
        "kind": word.kind,
        "m": word.m,
        "letters": list(word.letters),
        "word": word_to_str(word),
        "images": list(perm.images),
        "length": perm.length(),
        "reduced": is_reduced(word),
    }


# --- verb handlers ------------------------------------------------------------

def _cmd_ranks(args) -> int:
    rep = core.rep_from_json(_load(args.rep))
    _emit(core.ranks_to_json(core.ranks_of(rep)))
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
    m = core.rep_from_json(_load(args.m))
    n = core.rep_from_json(_load(args.n))
    _emit({"degenerates": degen.degenerates(m, n)})
    return 0


def _cmd_degen_path(args) -> int:
    m = core.rep_from_json(_load(args.m))
    n = core.rep_from_json(_load(args.n))
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
    m = core.rep_from_json(_load(args.m))
    n = core.rep_from_json(_load(args.n))
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
            "support": (None if step.support_interval is None
                        else list(step.support_interval)),
            "m_ranks": core.ranks_to_json(step.m_ranks),
            "n_ranks": core.ranks_to_json(step.n_ranks),
            "z_ranks": core.ranks_to_json(step.z_ranks),
        } for index, step in enumerate(steps)],
    })
    return 0


def _cmd_sym_moves(args) -> int:
    em, en = _sym_pair(args)
    found = symdegen.sym_move_refinement(em, en, budget=args.budget)
    if found is symdegen.INCONCLUSIVE:
        _emit({"status": "inconclusive", "budget": args.budget})
    else:
        _emit({"status": "found",
               "moves": [degen.move_to_json(mv) for mv in found]})
    return 0


def _cmd_pbw_build(args) -> int:
    subset = _parse_subset(args.n, args.i)
    erep, e = pbw.build_Mi(subset)
    _emit({
        "n": subset.n,
        "i": list(subset.i),
        "quiver_n": erep.rep.n,
        "type": _type_name(erep.sym),
        "module": core.rep_to_json(erep.rep),
        "dims": list(core.dim_vector(erep.rep)),
        "e": list(e),
    })
    return 0


def _cmd_pbw_weyl(args) -> int:
    subset = _parse_subset(args.n, args.i)
    _emit({
        "n": subset.n,
        "i": list(subset.i),
        "sigma_i": list(pbw.sigma_i_map(subset)),
        "iprime": list(pbw.iprime(subset)),
        "ell": list(pbw.ell_sequence(subset)),
        "h": list(pbw.h_sequence(subset)),
        "theta": list(pbw.theta(subset)),
        "w": _word_report(pbw.w_i_word(subset)),
        "u": _word_report(pbw.u_iprime_word(subset)),
    })
    return 0


def _cmd_pbw_face(args) -> int:
    subset = _parse_subset(args.n, args.i)
    d = _dvec_from_json(_load(args.rep))
    _emit({
        "n": subset.n,
        "i": list(subset.i),
        "contains": pbw.dynkin_face_contains(subset, d),
        "contains_strict": pbw.dynkin_face_contains(subset, d, strict=True),
        "violations": pbw.dynkin_face_violations(subset, d),
        "violations_strict": pbw.dynkin_face_violations(subset, d,
                                                        strict=True),
    })
    return 0


def _cmd_pbw_interior(args) -> int:
    subset = _parse_subset(args.n, args.i)
    _emit(_dvec_to_json(pbw.find_interior_point(subset)))
    return 0


def _cmd_pbw_fixed_points(args) -> int:
    subset = _parse_subset(args.n, args.i)
    points = pbw.lagrangian_fixed_points(subset)
    _emit({
        "n": subset.n,
        "i": list(subset.i),
        "count": len(points),
        "points": [[list(s) for s in fp.subsets] for fp in points],
    })
    return 0


def _cmd_pbw_lemma_ui(args) -> int:
    subset = _parse_subset(args.n, args.i)
    report = pbw.check_lemma_ui(subset)
    report["i"] = list(report["i"])
    report["u"] = list(report["u"])
    for row in report["rows"]:
        for key in ("predicted", "actual"):
            if row[key] is not None:
                row[key] = list(row[key])
    _emit(report)
    return 0


def _cmd_poset(args) -> int:
    dims = tuple(int(x) for x in args.dims.split(","))
    sym = _sym_type(len(dims), args.type)
    nodes = [rep for rep in core.modules_with_dims(dims)
             if symdegen.is_epsilon_rep(rep, sym)]
    nodes.sort(key=lambda rep: rep.key())
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
        "dims": list(dims),
        "nodes": [core.rep_to_json(rep) for rep in nodes],
        "edges": [list(edge) for edge in edges],
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

def _add_pbw_args(sub) -> None:
    sub.add_argument("n", type=int, help="flag rank n")
    sub.add_argument("i", nargs="?", default="",
                     help="comma separated subset of 1..n-1, empty for none")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympdeg",
        description="degeneration calculus for type-A quiver "
                    "representations and their symmetric variants")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("ranks", help="rank matrix of a module")
    sub.add_argument("--rep", required=True)
    sub.set_defaults(func=_cmd_ranks)

    sub = subs.add_parser("rep-of-ranks", help="module of a rank matrix")
    sub.add_argument("--rep", required=True, help="rank matrix JSON file")
    sub.set_defaults(func=_cmd_rep_of_ranks)

    sub = subs.add_parser("dual", help="reflection dual of a module")
    sub.add_argument("--rep", required=True)
    sub.set_defaults(func=_cmd_dual)

    sub = subs.add_parser("hom", help="dimension of Hom(M, N)")
    sub.add_argument("--m", required=True)
    sub.add_argument("--n", required=True)
    sub.set_defaults(func=_cmd_hom)

    sub = subs.add_parser("ext", help="dimension of Ext^1(M, N)")
    sub.add_argument("--m", required=True)
    sub.add_argument("--n", required=True)
    sub.set_defaults(func=_cmd_ext)

    sub = subs.add_parser("check-eps",
                          help="test compatibility with a symmetric type")
    sub.add_argument("--rep", required=True)
    sub.add_argument("--type", required=True, choices=sorted(TYPE_NAMES))
    sub.set_defaults(func=_cmd_check_eps)

    sub = subs.add_parser("degen-check", help="does M degenerate to N")
    sub.add_argument("--m", required=True)
    sub.add_argument("--n", required=True)
    sub.set_defaults(func=_cmd_degen_check)

    sub = subs.add_parser("degen-path",
                          help="cut/shift move chain from M to N")
    sub.add_argument("--m", required=True)
    sub.add_argument("--n", required=True)
    sub.set_defaults(func=_cmd_degen_path)

    sub = subs.add_parser("sym-check",
                          help="does M degenerate to N symmetrically")
    sub.add_argument("--m", required=True)
    sub.add_argument("--n", required=True)
    sub.add_argument("--type", required=True, choices=sorted(TYPE_NAMES))
    sub.set_defaults(func=_cmd_sym_check)

    sub = subs.add_parser("sym-path",
                          help="peel sequence from M to N in a split type")
    sub.add_argument("--m", required=True)
    sub.add_argument("--n", required=True)
    sub.add_argument("--type", required=True, choices=sorted(TYPE_NAMES))
    sub.add_argument("--table", action="store_true",
                     help="render as a text table instead of JSON")
    sub.set_defaults(func=_cmd_sym_path)

    sub = subs.add_parser("sym-moves",
                          help="symmetric move chain from M to N by search")
    sub.add_argument("--m", required=True)
    sub.add_argument("--n", required=True)
    sub.add_argument("--type", required=True, choices=sorted(TYPE_NAMES))
    sub.add_argument("--budget", type=int, default=5000,
                     help="search expansion budget")
    sub.set_defaults(func=_cmd_sym_moves)

    sub = subs.add_parser("pbw-build", help="distinguished module of a locus")
    _add_pbw_args(sub)
    sub.set_defaults(func=_cmd_pbw_build)

    sub = subs.add_parser("pbw-weyl",
                          help="index sequences and Weyl words of a locus")
    _add_pbw_args(sub)
    sub.set_defaults(func=_cmd_pbw_weyl)

    sub = subs.add_parser("pbw-face",
                          help="face membership of a root vector")
    _add_pbw_args(sub)
    sub.add_argument("--rep", required=True, help="root vector JSON file")
    sub.set_defaults(func=_cmd_pbw_face)

    sub = subs.add_parser("pbw-interior",
                          help="strict interior point of a face")
    _add_pbw_args(sub)
    sub.set_defaults(func=_cmd_pbw_interior)

    sub = subs.add_parser("pbw-fixed-points",
                          help="fixed coordinate flags of the Lagrangian part")
    _add_pbw_args(sub)
    sub.set_defaults(func=_cmd_pbw_fixed_points)

    sub = subs.add_parser("pbw-lemma-ui",
                          help="agreement report for the type-A word")
    _add_pbw_args(sub)
    sub.set_defaults(func=_cmd_pbw_lemma_ui)

    sub = subs.add_parser("poset",
                          help="symmetric degeneration order at fixed dims")
    sub.add_argument("--type", required=True, choices=sorted(TYPE_NAMES))
    sub.add_argument("--dims", required=True, help="comma separated")
    sub.add_argument("--dot", action="store_true", help="emit DOT digraph")
    sub.set_defaults(func=_cmd_poset)

    sub = subs.add_parser("oracle-verify",
                          help="cross-check formulas against the matrix oracle")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, default=50)
    sub.set_defaults(func=_cmd_oracle_verify)

    sub = subs.add_parser("render-coeff",
                          help="ASCII coefficient quiver, one row per segment")
    sub.add_argument("--rep", required=True)
    sub.set_defaults(func=_cmd_render_coeff)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MalformedInput as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except SympdegError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
