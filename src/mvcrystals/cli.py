"""Command-line front end: crystal enumeration and export, per-node strings,
string-cone inequalities, Y~/cell sampling, tropical transitions, and the
acceptance harness.

Reports are deterministic for fixed flags and seed (JSON is emitted with
sorted keys and all randomness is derived from the seed by stable hashing).
No command takes a precision: trop_eval certifies trop's answer whatever
precision it starts at.  crystal, string and cone load neither looplab nor
verify: the commands that need them import them when run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from mvcrystals.affine import build_gallery_type
from mvcrystals.crystal import CrystalError, string_parameters
from mvcrystals.gallery import GalleryError, crystal_to_dict, enumerate_ls
from mvcrystals.precision import GenericityError, PrecisionError
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum
from mvcrystals.trails import string_cone_inequalities

__all__ = ["main"]


def _ints(text, flag) -> tuple:
    """The comma-separated integers of flag's text, each -?[0-9]+ (int() would
    also read 1_0, +1, a space or a non-ASCII digit); the datum checks how many."""
    items = text.split(",") if text else []
    if not all(re.fullmatch(r"-?[0-9]+", x) for x in items):
        raise ValueError(f"{flag} {text!r} is not a comma-separated list of integers")
    return tuple(map(int, items))


def _emit(data, out_path):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_crystal(args):
    datum = build_root_datum(args.type, args.rank)
    lam = Coweight(_ints(args.lam, "--lambda"))
    word = None if args.word is None else _ints(args.word, "--word")
    gtype = build_gallery_type(datum, lam, word=word)
    graph = enumerate_ls(gtype)
    data = crystal_to_dict(graph)
    data["lambda"] = list(lam.coords)
    data["word"] = list(gtype.word)
    if args.dot:  # before the report, so a failed write leaves no report behind
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot() + "\n")
    _emit(data, args.out)
    return 0


def cmd_string(args):
    datum = build_root_datum(args.type, args.rank)
    lam = Coweight(_ints(args.lam, "--lambda"))
    word = _ints(args.word, "--word")
    graph = enumerate_ls(build_gallery_type(datum, lam))
    rows = []
    for node in graph.nodes:
        sp = string_parameters(graph, node, word)
        rows.append({
            "node": graph.node_id(node),
            "weight": list(graph.wt[node].coords),
            "c": list(sp.c),
            "c_tilde": list(sp.c_tilde),
        })
    _emit({"lambda": list(lam.coords), "word": list(word), "strings": rows},
          args.out)
    return 0


def cmd_cone(args):
    datum = build_root_datum(args.type, args.rank)
    word = _ints(args.word, "--word")
    rows, raw = string_cone_inequalities(datum, word)
    _emit({
        "word": list(word),
        "inequalities": [list(r) for r in rows],
        "raw_count": len(raw),
    }, args.out)
    return 0


def cmd_mv_sample(args):
    from mvcrystals.looplab import LoopGroup, sample_ytilde

    datum = build_root_datum(args.type, args.rank)
    group = LoopGroup(datum)
    word = _ints(args.word, "--word")
    c = _ints(args.c, "--c")
    points = sample_ytilde(group, word, c, trials=args.trials, seed=args.seed)
    rows = [{
        "trial": trial,
        "mu_plus": list(group.mu_plus(g).coords),
        "mu_minus": list(group.mu_minus(g).coords),
        "orbit": list(group.orbit_coweight(g).coords),
    } for trial, g in enumerate(points)]
    _emit({"word": list(word), "c": list(c), "seed": args.seed,
           "trials": args.trials, "reports": rows}, args.out)
    return 0


def cmd_trop(args):
    from mvcrystals.looplab import LoopGroup, lusztig_from_string

    datum = build_root_datum(args.type, args.rank)
    group = LoopGroup(datum)
    word = _ints(args.word, "--word")
    c_tilde = _ints(args.ctilde, "--ctilde")
    n_vec = lusztig_from_string(group, word, c_tilde)
    _emit({"word": list(word), "c_tilde": list(c_tilde),
           "lusztig": [int(x) for x in n_vec]}, args.out)
    return 0


def cmd_verify(args):
    from mvcrystals.verify import run_all

    results = run_all()
    failures = 0
    lines = []
    for res in results:
        rec = res.to_json_dict()
        if not args.full:
            rec.pop("details")
        lines.append(json.dumps(rec, sort_keys=True))
        if not res.passed:
            failures += 1
    if args.json:
        with open(args.json, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.cid:2d} [{mark}] ({res.seconds:.1f}s) {res.name}",
              file=sys.stderr)
    print(f"{len(results) - failures}/{len(results)} criteria passed",
          file=sys.stderr)
    return 0 if failures == 0 else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mvcrystals",
        description="crystals from LS galleries, string cones, and loop-group "
                    "valuation checks, all in exact arithmetic")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_datum_flags(p):
        p.add_argument("--type", default="A", choices=list("ABCDG"))
        p.add_argument("--rank", type=int, default=2, help="A 1-6, B and C 2-6, D 4-6, G 2; "
                       "the W table of B6 or C6 takes under a second")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("crystal", help="enumerate B(lambda) as LS galleries")
    add_datum_flags(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated coroot coordinates")
    p.add_argument("--word", default=None,
                   help="reduced word of w_lambda over I^aff (0 = affine node)")
    p.add_argument("--dot", default=None, help="also write a DOT graph here")
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("string", help="string parameters of every node")
    add_datum_flags(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--word", required=True, help="reduced word of w_0, 1-based")
    p.set_defaults(func=cmd_string)

    p = sub.add_parser("cone", help="string cone inequalities from i-trails")
    add_datum_flags(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("mv-sample", help="sample Y~_{word,c} valuations")
    add_datum_flags(p)
    p.add_argument("--word", required=True, help="reduced word of w_0, 1-based")
    p.add_argument("--c", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_mv_sample)

    p = sub.add_parser("trop", help="string -> Lusztig tropical transition")
    add_datum_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--ctilde", required=True)
    p.set_defaults(func=cmd_trop)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--json", default=None, help="write one JSON object per "
                   "criterion to this file")
    p.add_argument("--full", action="store_true",
                   help="include per-entry details in the JSON records")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RootDataError, CrystalError, GalleryError, GenericityError, PrecisionError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
