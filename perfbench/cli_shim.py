"""Stand-in for `python -m mvcrystals.cli` that the cli workload runs:

    python3 perfbench/cli_shim.py STATS_JSON TRACE CLI_ARGS...

Samples the reference speed (speed.py) in the command's own process, times
`import mvcrystals.cli` and `main`, traces the library in between when
TRACE is 1, and writes the samples, timings and per-layer stats to
STATS_JSON, also when main fails.
"""

import json
import sys
from time import perf_counter

from speed import Sampler

sampler = Sampler()
sampler.start()
t0 = perf_counter()
import mvcrystals.cli as cli  # noqa: E402
t1 = perf_counter()


def main():
    tracer = None
    if sys.argv[2] == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t2 = perf_counter()
    try:
        return cli.main(sys.argv[3:])
    finally:
        t3 = perf_counter()
        sampler.stop()
        with open(sys.argv[1], "w") as fh:
            json.dump({"import_s": t1 - t0, "main_s": t3 - t2, "samples": sampler.durations,
                       "stats": tracer.layer_stats() if tracer else None}, fh)


if __name__ == "__main__":
    sys.exit(main())
