"""Benchmark inputs, derived from ``--seed`` alone.

Only series_from_terms touches mvcrystals, to wrap values already drawn: the
library only ever sees the values generated here, so a change to the library
cannot change its own inputs.
Every generator draws from its own ``random.Random`` keyed by the seed and a
tag, so adding a draw to one workload leaves the others' inputs unchanged.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

DEFAULT_SEED = 1
# Never used while the benchmark or a change was tuned; confirm claims on it.
HELD_OUT_SEED = 90210

# Dominant coroot-lattice lambdas (coroot coordinates) for the crystals pass.
# Short galleries (A2 (1,1): ~5 ms/node) sit beside long ones (C4 omega_2:
# 36 nodes at ~50 ms/node, the tail), so a gallery change that trades one
# length for the other moves the median lambda against the tail.  C4
# omega_3 (84 nodes, ~8 s) would be the longest, but it alone outlasts a
# whole pass.
CRYSTAL_LAMBDAS = (
    ("A", 2, (1, 1)), ("A", 2, (2, 2)), ("A", 2, (3, 5)),
    ("A", 3, (1, 1, 1)), ("A", 3, (1, 2, 1)),
    ("A", 4, (1, 1, 1, 1)),
    ("B", 2, (2, 1)), ("B", 2, (2, 2)),
    ("B", 3, (1, 2, 1)),
    ("B", 4, (1, 2, 2, 1)),
    ("C", 2, (1, 2)), ("C", 2, (2, 2)),
    ("C", 3, (1, 1, 1)), ("C", 3, (1, 2, 2)),
    ("C", 4, (1, 1, 1, 1)), ("C", 4, (1, 2, 2, 2)),
    ("D", 4, (1, 2, 1, 1)),
    ("G", 2, (1, 2)), ("G", 2, (2, 3)),
)

# Pass sizes of the looping workloads, in rounds per second of --seconds:
# with run.py's pass counts, a run lasts about --seconds on a 2-core Xeon VM.
LOOPGROUP_ROUNDS_PER_S = 2.4
TROPICAL_ROUNDS_PER_S = 0.2


def _rng(seed, tag, *parts):
    return random.Random(repr((seed, tag) + parts))


# -- Weyl group data, independent of mvcrystals.rootdata -------------------------

def cartan(series, rank):
    """Cartan matrix with Bourbaki labels.  Only the Coxeter data (the products
    a_ij a_ji) matter here, so the B/C and transpose conventions agree."""
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
         for i in range(rank)]
    if series in "BC":
        a[rank - 2][rank - 1] = -2
    elif series == "D":
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif series == "G":
        a[1][0] = -3
    return a


def random_w0_word(series, rank, rng):
    """A reduced word of w_0: walk rho to the antidominant chamber, each step
    reflecting in a random simple root that still pairs positively."""
    a = cartan(series, rank)
    v = [1] * rank
    word = []
    while True:
        up = [i for i in range(rank) if v[i] > 0]
        if not up:
            return tuple(word)
        i = rng.choice(up)
        vi = v[i]
        for j in range(rank):
            v[j] -= vi * a[i][j]
        word.append(i + 1)


# -- string parameters (type A) ------------------------------------------------

def c_tilde(word, c):
    """c~_j = -c_j - sum_{k>j} c_k a_{i_j i_k} for the type-A Cartan matrix."""
    def a(i, j):
        return 2 if i == j else -1 if abs(i - j) == 1 else 0
    return tuple(-c[j] - sum(c[k] * a(word[j], word[k]) for k in range(j + 1, len(word)))
                 for j in range(len(word)))


def mu_plus_of(rank, word, c):
    """sum_j c_j alpha^vee_{i_j} in coroot coordinates."""
    out = [0] * rank
    for i, cj in zip(word, c):
        out[i - 1] += cj
    return tuple(out)


def random_in_cone(rng, rows, length, top):
    while True:
        c = tuple(rng.randint(0, top) for _ in range(length))
        if all(sum(r * x for r, x in zip(row, c)) >= 0 for row in rows):
            return c


def unit_series_terms(rng, shift):
    """(exponent, coefficient) pairs of t^shift (a_0 + a_1 t + a_2 t^2), a_0 != 0."""
    terms = [(shift, rng.choice([x for x in range(-9, 10) if x]))]
    for e in (1, 2):
        v = rng.randint(-9, 9)
        if v:
            terms.append((shift + e, v))
    return tuple(terms)


@lru_cache(maxsize=None)
def recorded():
    """Oracle data recorded from the library at the commit that added the
    benchmark (see record.py): string cones, the verify report digest and the
    stdout digest of every CLI command."""
    return json.loads(Path(__file__).with_name("recorded.json").read_text())


# Words of w_0 in SL3 and SL4 whose string cones are recorded.
CONE_WORDS = {2: ((1, 2, 1), (2, 1, 2)),
              3: ((2, 1, 3, 2, 1, 3), (1, 2, 1, 3, 2, 1), (3, 2, 3, 1, 2, 3),
                  (1, 3, 2, 1, 3, 2))}


def _cone_words(rank):
    return [(tuple(e["word"]), e["rows"]) for e in recorded()["cones"]
            if e["rank"] == rank]


# -- per-workload inputs ---------------------------------------------------------

def crystals_inputs(seed):
    """The fixed lambda list, each with a seeded reduced word of w_0 for its
    string parameters.  The order stays fixed: the first lambda of a root
    datum pays for building it, and that should not move with the seed."""
    rng = _rng(seed, "crystals")
    return [(s, r, lam, random_w0_word(s, r, rng)) for s, r, lam in CRYSTAL_LAMBDAS]


def loopgroup_round(seed, rnd):
    """One round: valuation triples and y -> factor_y round trips, eight of
    each in SL3 and two in SL4 (words of w_0 with recorded string cones).
    SL4 operations cost about five times SL3 ones; the uneven split keeps the
    median latency well inside the SL3 costs and the tail inside SL4's,
    instead of on the gap between them.  The shapes (word, string, shifts)
    of round ``rnd`` are the same for every seed, which draws only the
    series coefficients, so the seed moves the values and not the cost."""
    ops = []
    for kind in ("valuation", "roundtrip"):
        for rank, count in ((2, 8), (3, 2)):
            words = _cone_words(rank)
            for k in range(count):
                shape = _rng("shape", kind, rank, rnd, k)
                word, rows = shape.choice(words)
                if kind == "valuation":
                    c = random_in_cone(shape, rows, len(word), 3)
                    shifts = c_tilde(word, c)
                    expect = mu_plus_of(rank, word, c)
                else:
                    shifts = tuple(shape.randint(-3, 3) for _ in word)
                    expect = None
                rng = _rng(seed, kind, rank, rnd, k)
                terms = [unit_series_terms(rng, s) for s in shifts]
                ops.append({"kind": kind, "rank": rank, "word": word,
                            "terms": terms, "expect": expect})
    return ops


def tropical_shapes():
    """Every SL3 string with entries 0 or 1 inside the recorded cones.  The
    shapes are the same for every seed, so the seed moves only the random
    draws behind a map, not its cost."""
    return [(word, c) for word, rows in _cone_words(2)
            for c in itertools.product((0, 1), repeat=len(word))
            if all(sum(r * x for r, x in zip(row, c)) >= 0 for row in rows)]


def tropical_round(seed, rnd):
    """One round of SL3 string -> Lusztig maps: four at relative precision
    32 and two at 64, cycling through tropical_shapes(), with seeds for the
    library's generic evaluation drawn here.  With a third of the maps at
    precision 64, the latency median falls among the precision-32 maps and
    the tail (ten samples from the top of a run's 48) among the
    precision-64 ones."""
    shapes = tropical_shapes()
    ops = []
    for k, prec in enumerate((32, 32, 64, 32, 32, 64)):
        word, c = shapes[(6 * rnd + k) % len(shapes)]
        ops.append({"prec": prec, "word": word, "c_tilde": c_tilde(word, c),
                    "trop_seed": _rng(seed, "trop", rnd, k).randrange(10**6)})
    return ops


# Small cold CLI commands; every entry's stdout digest is recorded.  trop,
# the slowest kind, is four of the ten, so that in a pass (the list three
# times, 30 samples) the latency tail, ten samples from the top, falls among
# trop commands and the median among the others.
CLI_COMMANDS = [
    ["crystal", "--type", "A", "--rank", "2", "--lambda", "1,1"],
    ["crystal", "--type", "B", "--rank", "2", "--lambda", "1,1"],
    ["string", "--type", "A", "--rank", "2", "--lambda", "1,1", "--word", "1,2,1"],
    ["cone", "--type", "A", "--rank", "3", "--word", "2,1,3,2,1,3"],
    ["mv-sample", "--type", "A", "--rank", "2", "--word", "1,2,1", "--c", "1,0,1",
     "--trials", "3", "--seed", "1"],
    ["mv-sample", "--type", "A", "--rank", "3", "--word", "2,1,3,2,1,3",
     "--c", "0,0,1,0,0,1", "--trials", "2", "--seed", "3"],
    ["trop", "--type", "A", "--rank", "2", "--word", "1,2,1", "--ctilde=-1,0,-1"],
    ["trop", "--type", "A", "--rank", "2", "--word", "2,1,2", "--ctilde=-1,0,-1"],
    ["trop", "--type", "A", "--rank", "2", "--word", "1,2,1", "--ctilde=-2,1,-2"],
    ["trop", "--type", "A", "--rank", "2", "--word", "2,1,2", "--ctilde=-2,1,-2"],
]


def cli_commands(seed):
    """The command list three times over, in a seeded order.  Every command
    is a cold process, so its repeats are independent samples."""
    cmds = [list(argv) for argv in CLI_COMMANDS * 3]
    _rng(seed, "cli").shuffle(cmds)
    return cmds


def series_from_terms(terms):
    """Build the library's exact series from generated (exponent, coeff) pairs."""
    from mvcrystals.looplab import LaurentSeries
    return LaurentSeries({e: Fraction(c) for e, c in terms}, None)
