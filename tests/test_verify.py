import ast
import hashlib
import json
from pathlib import Path

import pytest

from mvcrystals import verify
from mvcrystals.crystal import CrystalError
from mvcrystals.verify import _A3_PAPER_ROWS, _grid_solutions, _row_set, run_all

# sha256 of the full verify report: json.dumps(r.to_json_dict(), sort_keys=True)
# plus a newline for every record of run_all(), in order.  Pins every
# criterion's details byte for byte.
VERIFY_REPORT_SHA256 = "4bd838165906b912a9efd2ce34efc594dc8aca6e2d796a9bf7e1b3e942e34aa0"


def test_grid_solutions_in_product_order():
    # x_1 >= 0 and x_2 - x_1 >= 0 on [-1, 1]^2, first coordinate slowest
    got = _grid_solutions([(1, 0), (-1, 1)], lo=-1, hi=1)
    assert got == [False, False, False,
                   False, True, True,
                   False, False, True]


def test_grid_comparison_sees_a_dropped_or_perturbed_row():
    paper = _grid_solutions(_A3_PAPER_ROWS)
    assert len(paper) == 7 ** 6
    for k in range(len(_A3_PAPER_ROWS)):
        dropped = _A3_PAPER_ROWS[:k] + _A3_PAPER_ROWS[k + 1:]
        assert _grid_solutions(dropped) != paper, k
    perturbed = list(_A3_PAPER_ROWS)
    perturbed[1] = (0, 1, 0, 0, 0, -2)
    assert _grid_solutions(perturbed) != paper


def test_row_sets_are_compared_up_to_positive_scaling():
    paper = _row_set(_A3_PAPER_ROWS)
    assert len(paper) == len(_A3_PAPER_ROWS)
    for k in range(len(_A3_PAPER_ROWS)):
        scaled = list(_A3_PAPER_ROWS)
        scaled[k] = tuple(2 * x for x in scaled[k])
        assert _row_set(scaled) == paper, k
        dropped = _A3_PAPER_ROWS[:k] + _A3_PAPER_ROWS[k + 1:]
        assert _row_set(dropped) != paper, k
    perturbed = list(_A3_PAPER_ROWS)
    perturbed[1] = (0, 1, 0, 0, 0, -2)
    assert _row_set(perturbed) != paper


def _counting_grid(monkeypatch):
    calls = []

    def counted(rows, real=verify._grid_solutions):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(verify, "_grid_solutions", counted)
    return calls


def test_criterion_5_skips_the_grid_when_the_row_sets_agree(monkeypatch):
    calls = _counting_grid(monkeypatch)
    res = verify.run_criterion(5)
    assert res.passed and res.details["a3_solution_sets_equal"]
    assert res.details["a3_grid_points"] == 7 ** 6
    assert calls == []


def test_criterion_5_falls_back_to_the_grid_on_a_redundant_row(monkeypatch):
    # the sum of two paper rows adds no constraint but changes the row set
    redundant = tuple(x + y for x, y in zip(_A3_PAPER_ROWS[0], _A3_PAPER_ROWS[1]))
    rows = list(_A3_PAPER_ROWS) + [redundant]
    assert _row_set(rows) != _row_set(_A3_PAPER_ROWS)

    def with_redundant_row(datum, word, real=verify.string_cone_inequalities):
        found = real(datum, word)
        return (rows, found[1]) if datum.rank == 3 else found

    monkeypatch.setattr(verify, "string_cone_inequalities", with_redundant_row)
    calls = _counting_grid(monkeypatch)
    res = verify.run_criterion(5)
    assert res.details["a3_solution_sets_equal"] is True and res.passed
    assert res.details["a3_grid_points"] == 7 ** 6
    assert len(calls) == 2


def test_cli_and_criterion_5_run_without_numpy(run_python):
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import mvcrystals.cli\n"
        "from mvcrystals.verify import run_criterion\n"
        "res = run_criterion(5)\n"
        "print(res.passed, res.details['a3_grid_points'])\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "117649"]


def test_src_has_no_assert_statements():
    # python -O strips assert statements; a check the criteria rely on must raise
    src = Path(__file__).resolve().parents[1] / "src"
    found = [f"{path.relative_to(src)}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_committed_bench_records_parse_and_hold_no_ops_lists():
    # the per-operation lists stay in perfbench/out/; a record keeps the metrics
    def ops_lists(node):
        if isinstance(node, dict):
            return ("ops" in node) + sum(ops_lists(v) for v in node.values())
        if isinstance(node, list):
            return sum(ops_lists(v) for v in node)
        return 0

    records = sorted((Path(__file__).resolve().parents[1]).glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["runs"], path.name
        assert ops_lists(record) == 0, path.name


def test_run_all_report_digest():
    results = run_all()
    assert all(r.passed for r in results), [r.cid for r in results if not r.passed]
    text = "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_REPORT_SHA256


def test_each_run_all_enumerates_its_own_graphs(monkeypatch):
    calls = []

    def counted(gtype, real=verify.enumerate_ls):
        calls.append(gtype)
        return real(gtype)

    monkeypatch.setattr(verify, "enumerate_ls", counted)
    # criterion 2 reads the suite of criterion 1 and two crystals inside it
    monkeypatch.setattr(verify, "CRITERIA", verify.CRITERIA[:2])
    suite = len(verify._suite_entries())
    for _ in range(2):
        calls.clear()
        assert all(r.passed for r in run_all())
        assert len(calls) == suite
    calls.clear()
    assert verify.run_criterion(2).passed  # alone: a cache of its own
    assert len(calls) == suite


def test_each_run_all_builds_one_loop_group_per_rank(monkeypatch):
    built = []

    def counted(datum, real=verify.LoopGroup):
        built.append(f"{datum.series}{datum.rank}")
        return real(datum)

    monkeypatch.setattr(verify, "LoopGroup", counted)
    # A3 in criteria 6 and 12, A1 in 10, A2 in 12
    monkeypatch.setattr(verify, "CRITERIA", [c for c in verify.CRITERIA if c[0] in (6, 10, 12)])
    for _ in range(2):
        built.clear()
        assert all(r.passed for r in run_all())
        assert sorted(built) == ["A1", "A2", "A3"]
    built.clear()
    assert verify.run_criterion(12).passed  # alone: groups of its own
    assert sorted(built) == ["A2", "A3"]


def test_criterion_4_fails_on_crystal_error_and_propagates_other_errors(monkeypatch):
    def raising(exc):
        def fake(g1, g2):
            if g1 is not g2:  # the self-isomorphism check still succeeds
                raise exc
        return fake

    monkeypatch.setattr(verify, "crystal_isomorphic", raising(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        verify.run_criterion(4)
    monkeypatch.setattr(verify, "crystal_isomorphic",
                        raising(CrystalError("weight mismatch")))
    assert not verify.run_criterion(4).passed
