"""The acceptance harness: every desk-scale criterion as a callable returning
a machine-readable result record.

Each criterion is exact (tolerance zero) unless its statement is sample-level,
in which case the randomness is seeded and the result is deterministic.
Entries whose highest coweight is singular are flagged as such in the details,
per the gallery model's singular-lambda caveat.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import random
import time
from functools import partial, reduce

from mvcrystals.affine import affine_step, build_gallery_type, \
    enumerate_affine_reduced_words, identity_aff, minimal_word
from mvcrystals.crystal import (
    CrystalError,
    character,
    crystal_isomorphic,
    expected_character,
    string_param_from_c_tilde,
    string_parameters,
    validate_axioms,
)
from mvcrystals.gallery import crystal_maps, dimension, enumerate_ls, min_wall_level, root_e
from mvcrystals.looplab import (
    LaurentMatrix,
    LaurentSeries,
    LoopGroup,
    cell_point,
    counterexample_matrix,
    crystal_op_sample,
    lusztig_from_string,
    morier_genoud_check,
    rank_one_identity_check,
    sample_cell,
    sample_ytilde,
)
from mvcrystals.looplab.sampling import random_unit_series
from mvcrystals.rootdata import Coweight, build_root_datum
from mvcrystals.trails import in_string_cone, string_cone_inequalities

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA"]


class CriterionResult:
    __slots__ = ("cid", "name", "passed", "seconds", "details")

    def __init__(self, cid: int, name: str, passed: bool, seconds: float,
                 details: dict | None = None):
        self.cid, self.name, self.passed, self.seconds = cid, name, passed, seconds
        self.details = {} if details is None else details

    def to_json_dict(self):
        # timing stays out of the record so reports are byte-identical runs
        return {
            "criterion": self.cid,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def _dominant_lattice_coweights(datum, max_height):
    """All dominant coroot-lattice points of height <= max_height, nonzero, by height."""
    box = map(Coweight, itertools.product(range(max_height + 1), repeat=datum.rank))
    return sorted((v for v in box if 0 < sum(v.coords) <= max_height and datum.is_dominant(v)),
                  key=lambda v: (datum.height(v), v.coords))


def _suite_entries():
    """(datum, lam) pairs for the crystal suites of criteria 1-3."""
    entries = []
    for series, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2)):
        datum = build_root_datum(series, rank)
        for lam in _dominant_lattice_coweights(datum, 4):
            entries.append((datum, lam))
    g2 = build_root_datum("G", 2)
    # fundamental coweights of G2 are both in the coroot lattice
    for i in (1, 2):
        entries.append((g2, g2.lattice_coweight(g2.fundamental_coweight(i))))
    return entries


def _is_singular(datum, lam):
    return any(datum.pairing(rt, lam) == 0 for rt in datum.positive_roots)


def _graph(graphs, datum, lam, word=None):
    """The LS crystal of (datum, lam, word), enumerated once per graph cache."""
    key = (datum.series, datum.rank, lam.coords, word)
    if key not in graphs:
        graphs[key] = enumerate_ls(build_gallery_type(datum, lam, word=word))
    return graphs[key]


def _group(graphs, datum):
    """The LoopGroup of datum, built (and self-checked) once per graph cache."""
    key = (datum.series, datum.rank)
    if key not in graphs:
        graphs[key] = LoopGroup(datum)
    return graphs[key]


# -- criteria -----------------------------------------------------------------


def _suite(graphs, check):
    """Criteria 1-3's one pass over _suite_entries(): check(datum, lam, graph)
    gives (passed, fields), and each entry's record is its datum and lambda,
    the check's own fields, then whether lambda is singular."""
    ok, rows = True, []
    for datum, lam in _suite_entries():
        passed, fields = check(datum, lam, _graph(graphs, datum, lam))
        rows.append({"datum": str(datum), "lambda": list(lam.coords), **fields,
                     "singular": _is_singular(datum, lam)})
        ok = ok and passed
    return ok, rows


def crit_1_axioms(graphs):
    def check(datum, lam, graph):
        bad = validate_axioms(graph)
        return not bad, {"nodes": len(graph.nodes), "violations": bad}
    ok, rows = _suite(graphs, check)
    return ok, {"entries": rows}


def crit_2_characters(graphs):
    def check(datum, lam, graph):
        want = expected_character(datum, lam)
        match = character(graph) == want
        return match, {"dimension": sum(want.values()), "match": match}
    ok, rows = _suite(graphs, check)
    # the two pinned instances
    a1 = build_root_datum("A", 1)
    ch1 = character(_graph(graphs, a1, Coweight((1,))))
    pin1 = ch1 == expected_character(a1, Coweight((1,))) and sum(ch1.values()) == 3
    a2 = build_root_datum("A", 2)
    ch2 = character(_graph(graphs, a2, Coweight((1, 1))))
    pin2 = sum(ch2.values()) == 8 and ch2[a2.zero_coweight()] == 2
    ok = ok and pin1 and pin2
    return ok, {"entries": rows, "pinned_a1": pin1, "pinned_a2_theta": pin2}


def crit_3_dimension_bookkeeping(graphs):
    def check(datum, lam, graph):
        gamma = graph.highest_node()  # gamma_lambda, which carries its type
        lhs, rhs = dimension(gamma), gamma.gtype.dim_gamma
        ls_ok = all(lhs - dimension(node) == datum.height(lam - node.weight)
                    for node in graph.nodes)
        return lhs == rhs and ls_ok, {"dim_gamma": lhs, "phi_plus_plus_p": rhs,
                                      "ls_defect_ok": ls_ok}
    ok, rows = _suite(graphs, check)
    return ok, {"entries": rows}


def crit_4_word_independence(graphs):
    a2 = build_root_datum("A", 2)
    details = {}
    ok = True
    for coords in ((1, 1), (2, 2)):
        lam = Coweight(coords)
        w = reduce(partial(affine_step, a2), minimal_word(a2, lam), identity_aff(a2))
        words = enumerate_affine_reduced_words(a2, w)
        crystals = [_graph(graphs, a2, lam, word=word) for word in words]
        pairs_ok = True
        for g1, g2 in itertools.combinations(crystals, 2):
            try:
                crystal_isomorphic(g1, g2)
            except CrystalError:
                pairs_ok = False
        # self-isomorphism must exist even when the word is unique
        crystal_isomorphic(crystals[0], crystals[0])
        details[str(coords)] = {"words": [list(w_) for w_ in words],
                                "isomorphic": pairs_ok}
        ok = ok and pairs_ok
    return ok, details


# the A3 string cone for i = (2, 1, 3, 2, 1, 3) as listed in the paper
_A3_PAPER_ROWS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, -1),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, -1, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 1, 1, -1, 0, 0),
    (0, 0, 0, 1, -1, -1),
)


def _grid_solutions(rows, lo=-3, hi=3):
    """For every x in [lo, hi]^n, in itertools.product order, whether
    r . x >= 0 for all rows r.  Each row's dot values are built one
    coordinate at a time, then the rows are ANDed together."""
    steps = range(lo, hi + 1)
    inside = [True] * len(steps) ** len(rows[0])
    for r in rows:
        dots = [0]
        for rk in r:
            terms = [rk * x for x in steps]
            dots = [d + t for d in dots for t in terms]
        inside = [ok and d >= 0 for ok, d in zip(inside, dots)]
    return inside


def _row_set(rows):
    """The nonzero rows, each divided by the gcd of its entries: equal sets
    cut out the same cone."""
    return {tuple(x // g for x in r) for r in rows if (g := math.gcd(*r))}


def crit_5_string_cone(graphs):
    a3 = build_root_datum("A", 3)
    word = (2, 1, 3, 2, 1, 3)
    rows, raw = string_cone_inequalities(a3, word)
    # equal row sets have the same grid points; the grid decides otherwise
    a3_ok = _row_set(rows) == _row_set(_A3_PAPER_ROWS) or \
        _grid_solutions(rows) == _grid_solutions(_A3_PAPER_ROWS)

    a2 = build_root_datum("A", 2)
    word2 = (1, 2, 1)
    rows2, _ = string_cone_inequalities(a2, word2)
    sound = True
    for coords in ((1, 1), (2, 1), (2, 2)):
        graph = _graph(graphs, a2, Coweight(coords))
        for node in graph.nodes:
            c = string_parameters(graph, node, word2).c
            sound = sound and in_string_cone(c, rows2)
    wanted = {c for c in itertools.product(range(4), repeat=3)
              if in_string_cone(c, rows2)}
    achieved = set()
    for coords in ((3, 3), (3, 5)):
        graph = _graph(graphs, a2, Coweight(coords))
        for node in graph.nodes:
            achieved.add(string_parameters(graph, node, word2).c)
    tight = wanted <= achieved
    ok = a3_ok and sound and tight
    return ok, {
        "a3_grid_points": 7 ** len(word),  # the [-3, 3]^6 grid
        "a3_solution_sets_equal": a3_ok,
        "a3_inequality_rows": len(rows),
        "a2_soundness": sound,
        "a2_tightness": tight,
        # i-trails walk the weights of Lambda^k C^n, so the cones are type A only
        "cone_checks_not_run": ["B2", "G2"],
    }


def crit_6_counterexample(graphs):
    a3 = build_root_datum("A", 3)
    group = _group(graphs, a3)
    word = (2, 1, 3, 2, 1, 3)
    g = counterexample_matrix(group)  # checks exact equality with the display
    ps = group.factor_y(g, word)
    c_tilde = tuple(p.val() for p in ps)
    c = string_param_from_c_tilde(a3, word, c_tilde).c
    rows, _ = string_cone_inequalities(a3, word)
    outside = not in_string_cone(c, rows)
    pattern = c[0] <= 0 and c[3] >= 1
    ok = outside and pattern and c_tilde == (0, -1, -1, 1, -1, -1)
    return ok, {"c_tilde": list(c_tilde), "c": list(c),
                "outside_cone": outside, "pattern_ok": pattern}


# The seed of every sampled criterion, the samples per case of criteria 7-9
# (criterion 7's record carries both) and criterion 12's roundtrips per group.
_SEED, _TRIALS, _ROUNDTRIPS = 7, 5, 100


def _coroot_sum(datum, word, c):
    """sum_j c_j alpha^vee_{i_j}: the stratum an in-cone string c must hit."""
    lam = datum.zero_coweight()
    for j, i in enumerate(word):
        lam = lam + datum.simple_coroot(i).scale(c[j])
    return lam


def crit_7_ytilde_sampling(graphs):
    cases = [
        (build_root_datum("A", 2), (1, 2, 1)),
        (build_root_datum("A", 3), (2, 1, 3, 2, 1, 3)),
    ]
    ok = True
    details = []
    for datum, word in cases:
        group = _group(graphs, datum)
        rows, _ = string_cone_inequalities(datum, word)
        rng = random.Random(repr((_SEED, "crit7", datum.rank)))
        n = len(word)
        inside, outside = [], []
        while len(inside) < 20:
            c = tuple(rng.randint(0, 3) for _ in range(n))
            if in_string_cone(c, rows) and c not in inside:
                inside.append(c)
        while len(outside) < 10:
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            if not in_string_cone(c, rows) and c not in outside:
                outside.append(c)
        for c in inside:
            lam = _coroot_sum(datum, word, c)
            for g in sample_ytilde(group, word, c, trials=_TRIALS, seed=_SEED):
                mu_plus, mu_minus = group.mu_plus(g), group.mu_minus(g)
                if mu_minus != datum.zero_coweight() or mu_plus != lam:
                    ok = False
        for c in outside:
            lam = _coroot_sum(datum, word, c)
            for g in sample_ytilde(group, word, c, trials=_TRIALS, seed=_SEED):
                mu_plus = group.mu_plus(g)
                if not (datum.dominance_leq(lam, mu_plus) and mu_plus != lam):
                    ok = False
        details.append({
            "datum": str(datum),
            "in_cone": [list(c) for c in inside],
            "out_of_cone": [list(c) for c in outside],
        })
    return ok, {"cases": details, "trials": _TRIALS, "seed": _SEED}


def crit_8_cell_sampling(graphs):
    a2 = build_root_datum("A", 2)
    group = _group(graphs, a2)
    lam = Coweight((1, 1))
    graph = _graph(graphs, a2, lam)
    ok = len(graph.nodes) == 8
    rows = []
    for node in graph.nodes:
        strata = [(group.mu_plus(g), group.orbit_coweight(g))
                  for g in sample_cell(group, node, trials=_TRIALS, seed=_SEED)]
        node_ok = all(mu_plus == node.weight
                      and a2.dominance_leq(a2.dominant_conjugate(orbit), lam)
                      for mu_plus, orbit in strata)
        rows.append({"node": graph.node_id(node),
                     "weight": list(node.weight.coords), "ok": node_ok})
        ok = ok and node_ok
    return ok, {"galleries": rows}


def crit_9_crystal_op(graphs):
    a2 = build_root_datum("A", 2)
    group = _group(graphs, a2)
    lam = Coweight((1, 1))
    graph = _graph(graphs, a2, lam)
    ok = True
    rows = []
    for node in graph.nodes:
        for i in (1, 2):
            up = root_e(node, i)
            if up is None:
                continue
            nu, eps, phi = crystal_maps(node, i)
            m = min_wall_level(node, i)
            rho = nu - a2.simple_coroot(i).scale(a2.pairing(a2.simple_root(i), nu) - m)
            comb = 2 * phi == a2.pairing(a2.simple_root(i), nu - rho)
            rng = random.Random(repr((_SEED, "crit9", graph.node_id(node), i)))
            pts = [cell_point(group, node, rng) for _ in range(_TRIALS)]
            moved = {group.mu_plus(g) for g in crystal_op_sample(group, pts, i, 1, eps, _SEED)}
            target = {group.mu_plus(g) for g in sample_cell(group, up, _TRIALS, _SEED)}
            samp = moved == {up.weight} == target
            rows.append({"node": graph.node_id(node), "i": i,
                         "combinatorial": comb, "sampled": samp})
            ok = ok and comb and samp
    return ok, {"checks": rows}


def crit_10_rank_one(graphs):
    a1 = build_root_datum("A", 1)
    group = _group(graphs, a1)
    # hand-derived instance
    u = group.gen_x(-a1.simple_root(1), LaurentSeries.t_power(-1))
    v = group.gen_x(a1.simple_root(1), LaurentSeries.t_power(1)) * \
        group.gen_t(Coweight((1,)))
    expected = LaurentMatrix([
        [LaurentSeries.t_power(1), LaurentSeries.one()],
        [-LaurentSeries.one(), LaurentSeries.zero()],
    ])
    hand = (u.inverse() * v).equals_exact(expected)
    rng = random.Random(repr((_SEED, "crit10")))
    rand_ok = True
    for _ in range(50):
        nu = rng.randint(-3, 3)
        n = rng.randint(0, 3)
        q = random_unit_series(rng)
        if not rank_one_identity_check(group, nu, n, q):
            rand_ok = False
    return hand and rand_ok, {"hand_instance": hand, "random_instances": 50}


def crit_11_tropical_transition(graphs):
    a2 = build_root_datum("A", 2)
    group = _group(graphs, a2)
    lam = Coweight((1, 1))
    graph = _graph(graphs, a2, lam)
    # B(-w0 lam) is B(lam) for lam = (1, 1): each node's contragredient twin
    flip = crystal_isomorphic(graph, graph.dual())
    ok = True
    rows = []
    for word in ((1, 2, 1), (2, 1, 2)):
        # each node's string and Lusztig datum once; the twin reads its own
        c_tilde = {node: string_parameters(graph, node, word).c_tilde for node in graph.nodes}
        lusztig = {node: lusztig_from_string(group, word, c) for node, c in c_tilde.items()}
        for node in graph.nodes:
            n_vec = lusztig[node]
            nonneg = all(x >= 0 for x in n_vec)
            mg = morier_genoud_check(group, word, c_tilde[node], lusztig[flip[node]], lam)
            rows.append({"word": list(word), "node": graph.node_id(node),
                         "n": n_vec, "nonneg": nonneg, "morier_genoud": mg})
            ok = ok and nonneg and mg
    return ok, {"checks_run": len(rows), "checks": rows}


def crit_12_factorization_roundtrip(graphs):
    ok = True
    details = {}
    for series, rank, word in (("A", 2, (1, 2, 1)), ("A", 3, (2, 1, 3, 2, 1, 3))):
        datum = build_root_datum(series, rank)
        group = _group(graphs, datum)
        rng = random.Random(repr((_SEED, "crit12", rank)))
        good = 0
        for _ in range(_ROUNDTRIPS):
            ps = [random_unit_series(rng).shift(rng.randint(-3, 3)) for _ in word]
            g = group.y_product(word, ps)
            qs = group.factor_y(g, word)
            vals_ok = [q.val() for q in qs] == [p.val() for p in ps]
            coeff_ok = all(p.agrees_with(q) for p, q in zip(ps, qs))
            if vals_ok and coeff_ok:
                good += 1
        details[f"{series}{rank}"] = good
        ok = ok and good == _ROUNDTRIPS
    return ok, details


# Every criterion takes the run's graph cache, a dict that _graph fills with
# LS crystals and _group with loop groups.
CRITERIA = [
    (1, "crystal axioms on the LS suites", crit_1_axioms),
    (2, "character identity vs Freudenthal", crit_2_characters),
    (3, "dimension bookkeeping", crit_3_dimension_bookkeeping),
    (4, "gallery word independence", crit_4_word_independence),
    (5, "string cone reproduction", crit_5_string_cone),
    (6, "SL4 counterexample reproduction", crit_6_counterexample),
    (7, "Y~ sampling vs the cone", crit_7_ytilde_sampling),
    (8, "cell sampling vs strata", crit_8_cell_sampling),
    (9, "crystal-operator compatibility", crit_9_crystal_op),
    (10, "rank-one identity", crit_10_rank_one),
    (11, "tropical transition and Morier-Genoud", crit_11_tropical_transition),
    (12, "factorization roundtrip", crit_12_factorization_roundtrip),
]


# The graph cache of the run_all() in progress.  run_criterion keeps its
# one-argument signature (perfbench's tracer wraps it per criterion), so the
# run hands its cache down through this context variable, which holds no
# value outside a run.
_RUN_GRAPHS = contextvars.ContextVar("run_graphs")


def run_criterion(cid: int) -> CriterionResult:
    """Run one criterion.  Inside run_all() it shares the run's LS crystals
    and loop groups; called alone it builds its own."""
    graphs = _RUN_GRAPHS.get({})
    for num, name, fn in CRITERIA:
        if num == cid:
            t0 = time.perf_counter()
            passed, details = fn(graphs)
            seconds = time.perf_counter() - t0
            return CriterionResult(num, name, bool(passed), seconds, details)
    raise ValueError(f"no criterion {cid}")


def run_all():
    """Every criterion in order, with one graph cache for the run."""
    token = _RUN_GRAPHS.set({})
    try:
        return [run_criterion(num) for num, _, _ in CRITERIA]
    finally:
        _RUN_GRAPHS.reset(token)
