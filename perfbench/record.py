"""Rewrite recorded.json: the oracle data the benchmark's gates compare with.

    python3 perfbench/record.py

Run it only at a commit whose outputs are known good (the verify report and
the CLI outputs are meant to stay byte-identical), and say so in the change
that rewrites the file.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402


def main():
    from mvcrystals import build_root_datum, string_cone_inequalities
    from mvcrystals.verify import run_all

    cones = []
    for rank, words in inputs.CONE_WORDS.items():
        datum = build_root_datum("A", rank)
        for word in words:
            rows, _ = string_cone_inequalities(datum, word)
            cones.append({"rank": rank, "word": list(word), "rows": [list(r) for r in rows]})
    report = verify_report(run_all())
    env = run.child_env()
    cli = {}
    for argv in inputs.CLI_COMMANDS:
        out = subprocess.run([sys.executable, "-m", "mvcrystals.cli", *argv], env=env,
                             cwd=ROOT, capture_output=True, check=True).stdout
        cli[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    data = {"cones": cones, "verify_sha256": hashlib.sha256(report.encode()).hexdigest(),
            "cli_sha256": cli}
    (HERE / "recorded.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def verify_report(results):
    """The full sorted-key report, one JSON record per criterion."""
    return "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in results) + "\n"


if __name__ == "__main__":
    main()
