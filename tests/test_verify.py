import ast
from pathlib import Path

from mvcrystals.verify import _A3_PAPER_ROWS, _grid_solutions


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
