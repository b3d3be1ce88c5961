"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 [--tiny]

A pass runs a fixed list of operations, made from the seed (and, for the
looping workloads, sized by --seconds), and reports each operation's time,
kind and work units, measured and scaled to the reference speed sampled
while it ran (speed.py).  run.py runs the passes, each in a new interpreter,
and keeps every operation's median scaled time over the passes.

Every operation is checked against an oracle that does not share code with
what it checks, or against data recorded in recorded.json.  An operation
that raises one of the library's errors or fails its check is counted as
failed and the pass goes on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import inputs
from speed import Sampler, scaled
from tracer import Tracer, check_reach, merge_stats, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


@lru_cache(maxsize=None)
def library_errors():
    from mvcrystals.crystal import CrystalError
    from mvcrystals.gallery import GalleryError
    from mvcrystals.looplab import GenericityError, PrecisionError
    from mvcrystals.rootdata import RootDataError
    # AssertionError: the library's own tripwires
    return (CrystalError, GalleryError, GenericityError, PrecisionError, RootDataError,
            AssertionError)


class Pass:
    """The operations of one pass, each with its kind, work units, measured
    seconds ("raw_s") and seconds scaled to the reference speed ("s").  The
    reference is sampled in this process, except for the cli workload, whose
    commands sample it in their own processes."""

    def __init__(self, args):
        self.args = args
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.gates_ok = True
        self.notes = {}
        self.sampler = Sampler()
        if args.workload != "cli":
            self.sampler.start()

    def add(self, kind, raw_s, s, units=1):
        self.ops.append({"kind": kind, "raw_s": raw_s, "s": s, "units": units})

    def op(self, kind, fn, check, units=None, timing=None):
        """Time fn(); count it failed if it raises a library error or if
        check(result) is false.  ``units(result)`` gives its work units
        (default 1); ``timing(result, seconds)`` its (measured, scaled)
        seconds when the reference was sampled elsewhere.  Returns the
        result, or None when fn raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn()
        except library_errors() as exc:
            print(f"failed {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            self.add(kind, *self.sampler.scale(t0, perf_counter()))
            return None
        t1 = perf_counter()
        if not check(out):
            print(f"failed check on {kind}", file=sys.stderr)
            self.failed += 1
        raw_s, s = timing(out, t1 - t0) if timing else self.sampler.scale(t0, t1)
        self.add(kind, raw_s, s, units(out) if units else 1)
        return out

    def finish(self):
        self.sampler.stop()
        raw = sum(op["raw_s"] for op in self.ops)
        self.notes["speed_factor"] = sum(op["s"] for op in self.ops) / raw if raw else None


# -- workloads -------------------------------------------------------------------


def run_verify(p):
    """The acceptance suite once, run_all(), as one operation whose work
    units are its criteria: the user waits for the whole report.  Gates:
    every criterion passes and the full report hashes to the digest
    recorded at this commit.  The criteria fix their own seeds, so --seed
    does not change this workload."""
    from mvcrystals import verify

    def suite():
        if p.args.tiny:
            return [verify.run_criterion(cid) for cid in (6, 10)]
        return verify.run_all()

    t0 = perf_counter()
    results = suite()
    p.add("run_all", *p.sampler.scale(t0, perf_counter()), units=len(results))
    p.attempted += len(results)
    p.failed += sum(not r.passed for r in results)
    if not p.args.tiny:
        p.gates_ok = verify_ok(results, inputs.recorded()["verify_sha256"])
    p.notes["seed_ignored"] = "criteria use their own fixed seeds"


def verify_ok(results, digest):
    """Every criterion passed and the full sorted-key report has this digest."""
    from record import verify_report
    report = verify_report(results).encode()
    return all(r.passed for r in results) and hashlib.sha256(report).hexdigest() == digest


def _string_in_cone(c, rows):
    return all(sum(r * x for r, x in zip(row, c)) >= 0 for row in rows)


def run_crystals(p):
    """Per lambda: gallery type, LS enumeration, axioms, character against
    Freudenthal, node count against the Weyl dimension formula, string
    parameters of every node along a seeded word of w_0 and, in type A, the
    string cone from i-trails with every string inside it."""
    import mvcrystals as mv
    from mvcrystals.crystal import weyl_dimension
    from mvcrystals.rootdata import Coweight

    items = inputs.crystals_inputs(p.args.seed)
    if p.args.tiny:
        items = [it for it in items if it[0] + str(it[1]) in ("A2", "B2")][:2]
    for series, rank, lam, word in items:
        def check_lambda(series=series, rank=rank, lam=lam, word=word):
            datum = mv.build_root_datum(series, rank)
            lam_cw = Coweight(lam)
            graph = mv.enumerate_ls(mv.build_gallery_type(datum, lam_cw))
            bad = mv.validate_axioms(graph)
            same = mv.character(graph) == mv.expected_character(datum, lam_cw)
            strings = [mv.string_parameters(graph, node, word).c for node in graph.nodes]
            inside = True
            if series == "A":
                rows, _ = mv.string_cone_inequalities(datum, word)
                inside = all(mv.in_string_cone(c, rows) and _string_in_cone(c, rows)
                             for c in strings)
            nodes = len(graph.nodes)
            return nodes, (not bad and same and inside
                           and nodes == weyl_dimension(datum, lam_cw))

        p.op(f"{series}{rank}", check_lambda, lambda out: out[1], units=lambda out: out[0])


def run_loopgroup(p):
    """Valuation triples (y_product, then mu_plus, mu_minus, orbit_coweight)
    on in-cone strings, gated by mu_plus = sum c_j alpha^vee_{i_j} and
    mu_minus = 0; and y_product -> factor_y round trips, gated by equal
    valuations and coefficients agreeing on factor_y's known window."""
    from mvcrystals.looplab import LoopGroup
    from mvcrystals.rootdata import build_root_datum

    groups = {rank: LoopGroup(build_root_datum("A", rank)) for rank in (2, 3)}
    rounds = 1 if p.args.tiny else max(1, round(p.args.seconds * inputs.LOOPGROUP_ROUNDS_PER_S))
    for rnd in range(rounds):
        specs = inputs.loopgroup_round(p.args.seed, rnd)
        if p.args.tiny:
            specs = specs[::4]
        for spec in specs:
            group, word = groups[spec["rank"]], spec["word"]
            ps = [inputs.series_from_terms(t) for t in spec["terms"]]
            if spec["kind"] == "valuation":
                def fn(group=group, word=word, ps=ps):
                    g = group.y_product(word, ps)
                    return group.mu_plus(g), group.mu_minus(g), group.orbit_coweight(g)

                def check(out, expect=spec["expect"]):
                    return valuation_ok(out, expect)
            else:
                def fn(group=group, word=word, ps=ps):
                    return group.factor_y(group.y_product(word, ps), word)

                def check(qs, ps=ps):
                    return roundtrip_ok(qs, ps)
            p.op(spec["kind"], fn, check)


def valuation_ok(out, expect):
    """mu_plus is the recorded sum c_j alpha^vee_{i_j} and mu_minus is 0."""
    mu_plus, mu_minus, _ = out
    return mu_plus.coords == tuple(expect) and not any(mu_minus.coords)


def roundtrip_ok(qs, ps):
    return len(qs) == len(ps) and all(_agrees(p, q) for p, q in zip(ps, qs))


def _agrees(p, q):
    """q's known window equals the exact input p: same valuation and the same
    coefficient at every exponent below q's cap."""
    if not q.coeffs or min(q.coeffs) != min(p.coeffs):
        return False
    top = max(set(p.coeffs) | set(q.coeffs)) + 1
    if q.cap is not None:
        top = q.cap
    return all(p.coeffs.get(e, 0) == q.coeffs.get(e, 0) for e in range(min(p.coeffs), top))


def run_tropical(p):
    """string -> Lusztig tropical maps (lusztig_from_string verifies the
    inverse map itself); gate: the Lusztig parameters of an in-cone string are
    nonnegative.  Precision 64 is set and restored through the public
    set_default_rel_prec."""
    from mvcrystals.looplab import LoopGroup, lusztig_from_string, set_default_rel_prec
    from mvcrystals.rootdata import build_root_datum

    group = LoopGroup(build_root_datum("A", 2))
    rounds = 1 if p.args.tiny else max(1, round(p.args.seconds * inputs.TROPICAL_ROUNDS_PER_S))
    for rnd in range(rounds):
        specs = inputs.tropical_round(p.args.seed, rnd)
        if p.args.tiny:
            specs = specs[:1]
        for spec in specs:
            def fn(spec=spec):
                set_default_rel_prec(spec["prec"])
                try:
                    return lusztig_from_string(group, spec["word"], spec["c_tilde"],
                                               seed=spec["trop_seed"])
                finally:
                    set_default_rel_prec(32)

            p.op(f"p{spec['prec']}", fn, lusztig_ok)


def lusztig_ok(n):
    """The Lusztig parameters of an in-cone string are nonnegative."""
    return all(x >= 0 for x in n)


def cli_ok(proc, digest):
    return proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest


def run_cli(p, shims):
    """Cold CLI commands, one at a time; gate: exit code 0 and the stdout
    digest recorded for that command.  Each command runs through
    cli_shim.py, which samples the reference speed in the command's own
    process and, traced, times import and main and traces the library."""
    digests = inputs.recorded()["cli_sha256"]
    cmds = inputs.cli_commands(p.args.seed)
    if p.args.tiny:
        cmds = cmds[:2]
    shim_out = OUT / f"cli-shim-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "cli_shim.py"), str(shim_out), str(p.args.trace)]
    for argv in cmds:
        def fn(argv=argv):
            shim_out.unlink(missing_ok=True)
            return subprocess.run(cmd + argv, cwd=ROOT, capture_output=True, timeout=60)

        def timing(proc, seconds):
            if not shim_out.exists():  # the shim died early; cli_ok has failed it
                return seconds, seconds
            shim = json.loads(shim_out.read_text())
            shims.append(shim)
            busy = seconds - sum(shim["samples"])
            return busy, scaled(busy, shim["samples"])

        p.op(argv[0], fn, lambda proc, key=" ".join(argv): cli_ok(proc, digests[key]),
             timing=timing)
    shim_out.unlink(missing_ok=True)


def _spawn_seconds(samples=5):
    out = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        out.append(perf_counter() - t0)
    return statistics.median(out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: it strips the library's checks")
    OUT.mkdir(exist_ok=True)
    p = Pass(args)
    stats = None
    extra = {}
    if args.workload == "cli":
        shims = []
        run_cli(p, shims)
        if args.trace:
            stats = merge_stats([s["stats"] for s in shims])
            extra = {"cli.spawn_s": _spawn_seconds(),
                     "cli.import_s": statistics.median(s["import_s"] for s in shims),
                     "cli.main_s": statistics.median(s["main_s"] for s in shims)}
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        {"verify": run_verify, "crystals": run_crystals, "loopgroup": run_loopgroup,
         "tropical": run_tropical}[args.workload](p)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            stats = tracer.layer_stats()
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    p.finish()
    out = {"correct": p.failed == 0 and p.gates_ok, "attempted": p.attempted,
           "failed": p.failed, "ops": p.ops, "peak_rss_kb": peak_kb, "notes": p.notes}
    if stats is not None:
        if not args.tiny:
            check_reach(args.workload, stats["calls"])
        out["per_layer"] = per_layer_metrics(stats, extra)
        out["calls"] = stats["calls"]
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
