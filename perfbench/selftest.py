"""Smoke tests of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

Every workload runs at a tiny size, a wrong oracle value or recorded digest
fails its gate, traced call counts repeat exactly, and BENCHMARK.json
matches what the runs print.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, optimize=False):
    cmd = [sys.executable] + (["-O"] if optimize else []) + [str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def traced_child(workload):
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, "--seed", "3",
                           "--seconds", "1", "--trace", "1", "--tiny"],
                          cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class Runs(unittest.TestCase):
    def test_every_workload_runs_tiny(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--seed", "2", "--seconds", "1",
                             "--trace", "0", "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(set(out["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_traced_counts_repeat_and_cover_per_layer(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for w in ("verify", "crystals", "loopgroup", "tropical", "cli"):
            with self.subTest(workload=w):
                first, second = traced_child(w), traced_child(w)
                self.assertTrue(first["calls"])
                self.assertEqual(first["calls"], second["calls"])
                self.assertEqual(set(first["per_layer"]) | {"trace.overhead_s"}, names)

    def test_refuses_optimized_interpreter(self):
        proc = bench("--workload", "loopgroup", "--seed", "1", "--seconds", "1",
                     optimize=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Gates(unittest.TestCase):
    def test_verify_digest(self):
        from mvcrystals.verify import run_criterion
        from record import verify_report
        results = [run_criterion(6)]
        good = hashlib.sha256(verify_report(results).encode()).hexdigest()
        self.assertTrue(workloads.verify_ok(results, good))
        self.assertFalse(workloads.verify_ok(results, "0" * 64))

    def test_loop_group_oracles(self):
        from mvcrystals.looplab import LoopGroup
        from mvcrystals.rootdata import build_root_datum
        specs = inputs.loopgroup_round(5, 0)
        val = next(s for s in specs if s["kind"] == "valuation" and s["rank"] == 3)
        rt = next(s for s in specs if s["kind"] == "roundtrip" and s["rank"] == 3)
        group = LoopGroup(build_root_datum("A", 3))
        ps = [inputs.series_from_terms(t) for t in val["terms"]]
        g = group.y_product(val["word"], ps)
        out = (group.mu_plus(g), group.mu_minus(g), group.orbit_coweight(g))
        self.assertTrue(workloads.valuation_ok(out, val["expect"]))
        wrong = (val["expect"][0] + 1,) + tuple(val["expect"][1:])
        self.assertFalse(workloads.valuation_ok(out, wrong))
        ps = [inputs.series_from_terms(t) for t in rt["terms"]]
        qs = group.factor_y(group.y_product(rt["word"], ps), rt["word"])
        self.assertTrue(workloads.roundtrip_ok(qs, ps))
        bumped = [p + inputs.series_from_terms([(min(p.coeffs), 1)]) for p in ps]
        self.assertFalse(workloads.roundtrip_ok(qs, bumped))
        self.assertFalse(workloads.lusztig_ok([0, -1, 2]))

    def test_cli_digest(self):
        argv = inputs.CLI_COMMANDS[3]
        proc = subprocess.run([sys.executable, "-m", "mvcrystals.cli", *argv], cwd=ROOT,
                              env=run.child_env(), capture_output=True, timeout=60)
        digest = inputs.recorded()["cli_sha256"][" ".join(argv)]
        self.assertTrue(workloads.cli_ok(proc, digest))
        self.assertFalse(workloads.cli_ok(proc, "0" * 64))

    def test_failed_operation_is_counted_and_run_goes_on(self):
        from mvcrystals.looplab import GenericityError

        def boom():
            raise GenericityError("forced")

        p = workloads.Pass(SimpleNamespace(workload="loopgroup"))
        try:
            p.op("boom", boom, lambda out: True)
            p.op("wrong", lambda: 1, lambda out: out == 2)
            p.op("right", lambda: 1, lambda out: out == 1)
        finally:
            p.finish()
        self.assertEqual((p.attempted, p.failed, len(p.ops)), (3, 2, 3))


class Speed(unittest.TestCase):
    def test_scaling(self):
        ref = speed.REFERENCE_S
        self.assertAlmostEqual(speed.scaled(2.0, [ref] * 5), 2.0)
        # a machine at half the reference speed: the work takes half as long there
        self.assertAlmostEqual(speed.scaled(2.0, [2 * ref] * 5), 1.0)

    def test_handler_time_is_not_work(self):
        s = speed.Sampler()
        s.starts, s.durations = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.1] * 6
        busy, _ = s.scale(2.5, 6.5)
        self.assertAlmostEqual(busy, 4.0 - 0.4)


class Inputs(unittest.TestCase):
    def test_seeded_w0_words_are_reduced_words_of_w0(self):
        from mvcrystals.rootdata import build_root_datum
        for series, rank, _lam, word in inputs.crystals_inputs(7):
            datum = build_root_datum(series, rank)
            self.assertEqual(len(word), len(datum.positive_roots))
            self.assertEqual(datum.word_to_element(word), datum.longest_element())

    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.loopgroup_round(4, 2), inputs.loopgroup_round(4, 2))
        self.assertNotEqual(inputs.loopgroup_round(4, 2), inputs.loopgroup_round(5, 2))
        self.assertEqual(inputs.cli_commands(4), inputs.cli_commands(4))


if __name__ == "__main__":
    unittest.main(verbosity=2)
