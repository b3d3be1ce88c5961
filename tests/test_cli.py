import hashlib
import json
import runpy
from pathlib import Path

import pytest

from mvcrystals.cli import main
from mvcrystals.looplab import default_rel_prec, sampling, set_default_rel_prec


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_crystal_a1(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    dot_file = tmp_path / "g.dot"
    code, _, _ = run_cli(["crystal", "--type", "A", "--rank", "1",
                          "--lambda", "1", "--out", str(out_file),
                          "--dot", str(dot_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["nodes"]) == 3
    assert len(data["edges"]) == 2
    assert data["word"] == [0]
    assert "digraph" in dot_file.read_text()


def test_crystal_unwritable_dot_prints_no_report(tmp_path, capsys):
    code, out, err = run_cli(["crystal", "--type", "A", "--rank", "1", "--lambda", "1",
                              "--dot", str(tmp_path / "missing" / "g.dot")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "g.dot" in err


def test_crystal_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        run_cli(["crystal", "--type", "A", "--rank", "2", "--lambda", "1,1",
                 "--out", str(f)], capsys)
    assert f1.read_text() == f2.read_text()


def test_crystal_takes_the_empty_word(capsys):
    # --word '' is the empty word, not the default one: it fails where w_lambda
    # is not 1, naming the word, and gives B(0), one node, at lambda = 0
    code, out, err = run_cli(["crystal", "--lambda", "1,1", "--word", ""], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: word () ")
    code, out, _ = run_cli(["crystal", "--lambda", "0,0", "--word", ""], capsys)
    data = json.loads(out)
    assert code == 0 and data["word"] == [] and len(data["nodes"]) == 1


def test_string_command(capsys):
    code, out, _ = run_cli(["string", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--word", "1,2,1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["strings"]) == 8
    cs = {tuple(row["c"]) for row in data["strings"]}
    assert len(cs) == 8  # strings are injective on nodes


def test_cone_command(capsys):
    code, out, _ = run_cli(["cone", "--type", "A", "--rank", "3",
                            "--word", "2,1,3,2,1,3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [0, 0, 0, 0, 0, 1] in data["inequalities"]


def test_mv_sample_deterministic(capsys):
    args = ["mv-sample", "--type", "A", "--rank", "2", "--word", "1,2,1",
            "--c", "1,1,0", "--trials", "4", "--seed", "7"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    data = json.loads(out1)
    assert all(r["mu_plus"] == [1, 1] for r in data["reports"])
    assert all(r["mu_minus"] == [0, 0] for r in data["reports"])


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("argv", runpy.run_path(str(_PERFBENCH / "inputs.py"))["CLI_COMMANDS"],
                         ids=" ".join)
def test_recorded_cli_output(capsys, argv):
    # the stdout of each benchmark command is pinned by its recorded sha256
    digest = json.loads((_PERFBENCH / "recorded.json").read_text())["cli_sha256"][" ".join(argv)]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trop_command(capsys):
    code, out, _ = run_cli(["trop", "--type", "A", "--rank", "1",
                            "--word", "1", "--ctilde=-2"], capsys)
    assert code == 0
    assert json.loads(out)["lusztig"] == [2]


def test_unwritable_output_is_an_error_not_a_failed_criterion(tmp_path, capsys, monkeypatch):
    # status 1 from verify means a criterion failed; a path that cannot be
    # written is an input error, status 2, whichever command it is
    from mvcrystals import verify
    monkeypatch.setattr(verify, "run_all", lambda: [])
    missing = tmp_path / "missing"
    for argv in (["cone", "--word", "1,2,1", "--out", str(missing / "cone.json")],
                 ["verify", "--json", str(missing / "report.jsonl")]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: [Errno 2] No such file or directory") and "missing" in err


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["crystal", "--type", "Z", "--rank", "2", "--lambda", "1,1"])
    assert exc.value.code != 0


_MAIN = "import sys\nfrom mvcrystals.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def test_verify_reports_byte_identical(tmp_path, run_python):
    # each report comes from a fresh interpreter, so the second one
    # re-enumerates every crystal instead of reading the first one's
    f1, f2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for f in (f1, f2):
        out = run_python(_MAIN, args=["verify", "--json", str(f), "--full"])
        assert out.returncode == 0, out.stderr
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().strip().split("\n")
    assert len(lines) == 12
    assert all(json.loads(line)["passed"] for line in lines)


@pytest.mark.parametrize("env_prec", [None, "1"])
def test_commands_run_at_the_default_precision(run_python, env_prec):
    # no flag or environment variable sets the precision: each command runs
    # at 32 and leaves 32
    env = {} if env_prec is None else {"MVCRYSTALS_PREC": env_prec}
    code = (
        "from mvcrystals import cli\n"
        "from mvcrystals import looplab\n"
        "from mvcrystals.looplab import default_rel_prec\n"
        "def reporting(fn):\n"
        "    def run(*args, **kwargs):\n"
        "        print('prec', default_rel_prec())\n"
        "        return fn(*args, **kwargs)\n"
        "    return run\n"
        "looplab.sample_ytilde = reporting(looplab.sample_ytilde)\n"
        "looplab.lusztig_from_string = reporting(looplab.lusztig_from_string)\n"
        "for cmd in (['mv-sample', '--rank', '1', '--word', '1', '--c', '1',\n"
        "             '--trials', '1'],\n"
        "            ['trop', '--rank', '1', '--word', '1', '--ctilde=-2']):\n"
        "    assert cli.main(cmd) == 0\n"
        "    print('after', default_rel_prec())\n"
    )
    out = run_python(code, **env)
    assert out.returncode == 0, out.stderr
    precs = [line.split()[1] for line in out.stdout.splitlines()
             if line.split()[0] in ("prec", "after")]
    assert precs == ["32"] * 4


@pytest.mark.parametrize("command", [
    ["mv-sample", "--rank", "1", "--word", "1", "--c", "1"],
    ["trop", "--rank", "1", "--word", "1", "--ctilde=-2"],
], ids=lambda argv: argv[0])
def test_no_command_takes_a_prec_flag(capsys, command):
    # sampled matrices are exact, and trop_eval certifies trop's answer at any
    # starting precision, so a precision flag would change no answer
    with pytest.raises(SystemExit) as exc:
        main(command + ["--prec", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --prec 4" in capsys.readouterr().err


def test_trop_escalates_precision_when_a_pivot_vanishes(capsys, monkeypatch):
    # at relative precision 1 a peel pivot of this A3 map's inverse direction
    # is indistinguishable from zero, so trop_eval doubles the precision to 2;
    # the answer is the one at the default precision, which trop_eval restores
    log = []
    monkeypatch.setattr(sampling, "set_default_rel_prec",
                        lambda n: (log.append(n), set_default_rel_prec(n)))
    argv = ["trop", "--type", "A", "--rank", "3", "--word", "2,1,3,2,1,3",
            "--ctilde=-1,-1,0,0,-2,1"]
    before = default_rel_prec()
    try:
        for prec in (before, 1):
            set_default_rel_prec(prec)
            log.clear()
            code, out, err = run_cli(argv, capsys)
            assert code == 0, (prec, err)
            assert json.loads(out)["lusztig"] == [1, -1, 3, -1, 0, 2]
            assert default_rel_prec() == prec
    finally:
        set_default_rel_prec(before)
    # forward map: one attempt at 1; inverse map: at 1, then at 2
    assert log == [1, 1, 1, 2, 1]


@pytest.mark.parametrize("word,ctilde", [
    ("1,2,1", "-1,0"),      # c~ shorter than the word
    ("1,2", "-1,0"),        # not a reduced word of w_0
    ("1,2,1", "-1,0,0,1"),  # c~ longer than the word
])
def test_trop_rejects_a_word_or_ctilde_that_do_not_fit(capsys, word, ctilde):
    code, out, err = run_cli(["trop", "--type", "A", "--rank", "2", "--word", word,
                              f"--ctilde={ctilde}"], capsys)
    assert code == 2 and out == ""
    w, c = (tuple(int(x) for x in text.split(",")) for text in (word, ctilde))
    message = f"{w} is not a reduced word of w_0 for A2 (3 letters in 1..2)" if len(w) != 3 \
        else f"c~ = {c} on word {w} for A2: need one c~ entry per letter; " \
             f"the word has {len(w)} letters, c~ has {len(c)} entries"
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags,message", [
    (["--word", "1,2,1", "--c", "1,0"],
     "c = (1, 0) on word (1, 2, 1) for A2: need one c entry per letter; "
     "the word has 3 letters, c has 2 entries"),
    (["--word", "1,5,1", "--c", "1,0,1"],
     "(1, 5, 1) is not a reduced word of w_0 for A2 (3 letters in 1..2)"),
    (["--word", "1,2,1", "--c", "1,0,1", "--trials", "-3"],
     "trials must be at least 1, got -3"),
    (["--word", "1,2", "--c", "1,0"],
     "(1, 2) is not a reduced word of w_0 for A2 (3 letters in 1..2)"),
    (["--word", "1,1,1", "--c", "1,0,1"],
     "(1, 1, 1) is not a reduced word of w_0 for A2 (3 letters in 1..2)"),
], ids=["short-c", "bad-letter", "negative-trials", "short-word", "unreduced-word"])
def test_mv_sample_rejects_input_that_does_not_fit(capsys, flags, message):
    code, out, err = run_cli(["mv-sample", "--type", "A", "--rank", "2", *flags], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,flag,text", [
    (["crystal", "--lambda", "1/2,1"], "--lambda", "1/2,1"),
    (["crystal", "--lambda", "1,1", "--word", "0,x"], "--word", "0,x"),
    (["string", "--lambda", "1,1", "--word", "1 2 1"], "--word", "1 2 1"),
    (["mv-sample", "--word", "1,2,1", "--c", "1,,0"], "--c", "1,,0"),
    (["trop", "--word", "1,2,1", "--ctilde=-1,0.5,0"], "--ctilde", "-1,0.5,0"),
    (["crystal", "--lambda", "1_0,1"], "--lambda", "1_0,1"),
    (["crystal", "--lambda", " 1,1"], "--lambda", " 1,1"),
    (["crystal", "--lambda", "1,+1"], "--lambda", "1,+1"),
    (["crystal", "--lambda", "1,\u0661"], "--lambda", "1,\u0661"),
    (["string", "--lambda", "1,1", "--word", "1,2,-"], "--word", "1,2,-"),
], ids=["lambda", "crystal-word", "string-word", "c", "ctilde", "underscore", "space",
        "plus", "arabic-indic-digit", "bare-minus"])
def test_integer_lists_name_their_flag(capsys, argv, flag, text):
    # int() named only the literal: invalid literal for int() with base 10: '1/2';
    # and it read 1_0 as 10, " 1" and +1 as 1 and a non-ASCII digit as its value
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} {text!r} is not a comma-separated list of integers\n"


_BUILT = "built are A1-A6, B2-B6, C2-C6, D4-D6 and G2"


@pytest.mark.parametrize("argv,message", [
    (["crystal", "--type", "D", "--rank", "3", "--lambda", "1,1,1"],
     f"unsupported series/rank: D3; {_BUILT}"),
    (["crystal", "--type", "A", "--rank", "7", "--lambda", "1,1,1,1,1,1,1"],
     f"unsupported series/rank: A7; {_BUILT}"),
    (["string", "--type", "G", "--rank", "2", "--lambda", "1,0", "--word", "1,2,1,2,1,2"],
     "(1, 0) is not dominant for G2"),
    (["crystal", "--type", "D", "--rank", "5", "--lambda", "1,1"],
     "coweight coordinates (1, 1) do not have rank 5 for D5"),
], ids=["D3", "A7", "G2-not-dominant", "D5-short-lambda"])
def test_refusals_name_the_datum(capsys, argv, message):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


def test_combinatorial_commands_load_neither_looplab_nor_verify(run_python):
    code = (
        "import contextlib, io, sys\n"
        "from mvcrystals.cli import main\n"
        "def loaded():\n"
        "    print([m for m in ('mvcrystals.looplab', 'mvcrystals.verify')\n"
        "           if m in sys.modules])\n"
        "for cmd in (['crystal', '--lambda', '1,1'],\n"
        "            ['string', '--lambda', '1,1', '--word', '1,2,1'],\n"
        "            ['cone', '--word', '1,2,1'],\n"
        "            ['trop', '--rank', '1', '--word', '1', '--ctilde=-2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(cmd) == 0\n"
        "    loaded()\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]"] * 3 + ["['mvcrystals.looplab']"]
