"""mvcrystals benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all            # every workload, default seed

Workloads (one client, no threads, one operation at a time):

    verify     run_all(), the 12-criterion acceptance suite, once per pass
    crystals   the combinatorial stack over a fixed lambda list, once per pass
    loopgroup  SL3/SL4 valuation triples and y -> factor_y round trips
    tropical   SL3 string -> Lusztig maps at relative precision 32 and 64
    cli        cold mvcrystals.cli commands, one process each (cli_shim.py)

A run makes a fixed list of operations from --seed (the looping workloads
size it by --seconds) and runs it in several passes, each in a new
interpreter, so every library cache starts empty as it does for a user.
Times are scaled to a reference speed sampled in the measured process while
it works (speed.py), and every operation keeps its median scaled time over
the passes.  With --trace 0 the
last stdout line holds the end-to-end metrics.  With --trace 1 it holds the
per-layer metrics of one traced pass, and the tracing overhead against one
untraced pass of the same operations.  The lines before it give the machine,
the workload's own named metrics and the sample counts.  Full results go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
from speed import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify", "crystals", "loopgroup", "tropical", "cli")
# Module each workload's child imports before its first operation.
ENTRY_MODULE = {"verify": "mvcrystals.verify", "crystals": "mvcrystals",
                "loopgroup": "mvcrystals.looplab", "tropical": "mvcrystals.looplab",
                "cli": "mvcrystals.cli"}
# Cold passes per run; each operation keeps its median scaled time over them.
# verify runs run_all() once, as a user would, and is the longest pass; cli
# runs every command three times within its one pass, each a cold process.
PASSES = {"verify": 1, "crystals": 3, "loopgroup": 4, "tropical": 4, "cli": 1}
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170


def child_env():
    """The environment of every child: src/ on the path, the documented
    precision override and optimisation switched off, hashing fixed, and
    numpy's OpenBLAS held to one thread.  By default importing numpy starts
    a BLAS thread per core that spins for a while: on two cores it took
    about 130 ms of CPU beside each 290 ms cli command and slowed the
    command's own thread by an amount that varied from minute to minute."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MVCRYSTALS_PREC", "PYTHONOPTIMIZE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = None, None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        capture_output=True, text=True, timeout=10).stdout)
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "commit": commit, "dirty": dirty}


def setup_seconds(module, env):
    """Median over cold interpreters of spawn-to-ready: the interpreter starts,
    imports ``module`` and reports.  One unmeasured spawn goes first so that
    byte-code compilation after a fresh checkout is not counted.  Each probe
    samples the reference speed in its own process and sends the samples
    with its ready line; its time is scaled by them."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); from speed import Sampler; "
            f"s = Sampler(); s.start(); import {module}; s.stop(); "
            f"sys.stdout.write(' '.join(['ready'] + [repr(d) for d in s.durations]) + '\\n'); "
            f"sys.stdout.flush()")
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line[:1] != ["ready"]:
            raise RuntimeError(f"set-up probe for {module} failed")
        durations = [float(d) for d in line[1:]]
        if k:
            samples.append(scaled(t1 - t0 - sum(durations), durations))
    return statistics.median(samples)


def run_pass(workload, seed, seconds, trace, env, tiny=False):
    """One pass of the workload in a new interpreter."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(passes):
    """Each operation's median scaled time over the passes.  The passes run
    the same operations in the same order, so the lists line up."""
    kinds = [op["kind"] for op in passes[0]["ops"]]
    for p in passes[1:]:
        if [op["kind"] for op in p["ops"]] != kinds:
            raise RuntimeError("passes ran different operations")
    per_op = [statistics.median(p["ops"][i]["s"] for p in passes) for i in range(len(kinds))]
    units = [op["units"] for op in passes[0]["ops"]]
    return kinds, per_op, units


def tail_rank(n):
    """The highest percentile with at least ten samples beyond it; below
    twenty samples that rule falls under the median, so use the maximum."""
    return 100.0 if n < 20 else 100.0 * (1 - 10 / n)


def percentile(values, q):
    """Nearest-rank percentile."""
    vals = sorted(values)
    k = max(1, -(-len(vals) * q // 100))
    return vals[int(k) - 1]


def end_to_end(workload, passes, setup_s):
    kinds, per_op, units = median_of(passes)
    # Latencies pool every pass's samples: each quantile then falls among
    # several samples of the operations near it, not on a single one.
    pooled = [op["s"] for p in passes for op in p["ops"]]
    q = tail_rank(len(pooled))
    p50, tail = 1000 * statistics.median(pooled), 1000 * percentile(pooled, q)
    metrics = {
        "ops_per_s": {"value": sum(units) / sum(per_op), "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_tail_ms": {"value": tail, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": max(p["peak_rss_kb"] for p in passes) / 1024, "unit": "MB"},
    }

    def rate(kind):
        picked = [(s, u) for k, s, u in zip(kinds, per_op, units) if k == kind]
        if not picked:  # a tiny run may skip a kind
            return None
        return {"value": sum(u for _, u in picked) / sum(s for s, _ in picked), "unit": "1/s"}

    named = {
        "verify": lambda: {"verify_s": {"value": sum(per_op), "unit": "s"}},
        "crystals": lambda: {"ls_nodes_per_s": metrics["ops_per_s"]},
        "loopgroup": lambda: {"valuations_per_s": rate("valuation"),
                              "factorizations_per_s": rate("roundtrip")},
        "tropical": lambda: {"trop_maps_per_s": rate("p32"), "trop_maps_p64_per_s": rate("p64")},
        "cli": lambda: {"cli_p50_ms": metrics["op_p50_ms"], "cli_tail_ms": metrics["op_tail_ms"]},
    }[workload]()
    named = {name: m for name, m in named.items() if m is not None}
    notes = {"samples": len(pooled), "tail_percentile": round(q, 2), "passes": len(passes)}
    ops = [{"kind": k, "median_s": s, "units": u} for k, s, u in zip(kinds, per_op, units)]
    return metrics, named, notes, ops


def run_one(workload, seed, seconds, trace, tiny=False):
    env = child_env()
    facts = machine_facts()
    if trace:
        traced = run_pass(workload, seed, seconds, 1, env, tiny)
        base = run_pass(workload, seed, seconds, 0, env, tiny)
        busy = [sum(op["s"] for op in p["ops"]) for p in (traced, base)]
        metrics = traced["per_layer"]
        metrics["trace.overhead_s"] = {"value": busy[0] - busy[1], "unit": "s"}
        passes, named, ops = [traced], {}, []
        notes = {"traced_busy_s": busy[0], "untraced_busy_s": busy[1]}
    else:
        setup_s = setup_seconds(ENTRY_MODULE[workload], env)
        passes = [run_pass(workload, seed, seconds, 0, env, tiny)
                  for _ in range(1 if tiny else PASSES[workload])]
        metrics, named, notes, ops = end_to_end(workload, passes, setup_s)
    notes.update(passes[0]["notes"])
    summary = {"correct": all(p["correct"] for p in passes),
               "attempted": sum(p["attempted"] for p in passes),
               "failed": sum(p["failed"] for p in passes), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": facts, "notes": notes, "named": named, "ops": ops, **summary}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return summary, record


def describe(record):
    print(f"# machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# {record['workload']} seed={record['seed']} notes: "
          f"{json.dumps(record['notes'], sort_keys=True)}")
    for name, m in sorted(record["named"].items()):
        print(f"# {record['workload']} {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the library's assert checks: that is a different program
        print("error: refusing to benchmark under python -O", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "mvcrystals" / "__init__.py").is_file():
        print(f"error: no mvcrystals sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed is None:
        args.seed = inputs.DEFAULT_SEED
    names = WORKLOADS if args.all else [args.workload]
    if names == [None]:
        ap.error("give --workload or --all")
    summaries = {}
    for name in names:
        summary, record = run_one(name, args.seed, args.seconds, args.trace, tiny=args.tiny)
        describe(record)
        if args.all:
            for metric, m in sorted(summary["metrics"].items()):
                print(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
            print(f"# {name} correct={summary['correct']} attempted={summary['attempted']} "
                  f"failed={summary['failed']}")
        summaries[name] = summary
    print(json.dumps(summaries if args.all else summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
