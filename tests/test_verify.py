import ast
import hashlib
import json
from pathlib import Path

from mvcrystals import verify
from mvcrystals.verify import _A3_PAPER_ROWS, _grid_solutions, run_all

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
