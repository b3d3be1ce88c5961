"""Sampling and tropical evaluation: points of the subsets Y~_{i,c}, of
gallery cells and of their crystal-operator images (the callers read the
valuations they check), tropical transition maps, and the SL_4
counterexample.

Sampling draws small integer coefficients from seeded generators, so every
generator matrix is an exact Laurent polynomial; inexactness enters only
through divisions, where the precision window is tracked: factor_z's Chamber
Ansatz quotients of exact minors (so their valuations are exact), z_of's
Gauss factor, and factor_y's peel of that windowed factor.  Tropical
evaluation draws nothing (see trop_eval).  A valuation or pivot
indistinguishable from zero (PrecisionError) escalates the relative
precision by doubling up to 256.
"""

from __future__ import annotations

import random

from mvcrystals.crystal import string_param_from_c
from mvcrystals.gallery import Gallery, is_positively_folded
from mvcrystals.looplab.groups import LoopGroup
from mvcrystals.looplab.series import (
    LaurentMatrix,
    LaurentSeries,
    LoopGroupError,
    PrecisionError,
    default_rel_prec,
    set_default_rel_prec,
)
from mvcrystals.precision import MAX_REL_PREC
from mvcrystals.rootdata import Coweight, RootDataError

__all__ = [
    "rand_nonzero_int",
    "random_unit_series",
    "sample_ytilde",
    "sample_cell",
    "cell_point",
    "crystal_op_sample",
    "rank_one_identity_check",
    "counterexample_matrix",
    "trop_eval",
    "lusztig_from_string",
    "morier_genoud_check",
    "string_to_lusztig_map",
    "lusztig_to_string_map",
]


def rand_nonzero_int(rng: random.Random) -> int:
    x = 0
    while x == 0:
        x = rng.randint(-9, 9)
    return x


def random_unit_series(rng: random.Random) -> LaurentSeries:
    """A random unit polynomial a_0 + a_1 t + a_2 t^2 with a_0 != 0 (exact)."""
    return LaurentSeries({0: rand_nonzero_int(rng), 1: rng.randint(-9, 9),
                          2: rng.randint(-9, 9)})


def _trials(trials):
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    return range(trials)


def sample_ytilde(group: LoopGroup, word, c, trials=5, seed=7):
    """Sample points of Y~_{word,c} for a reduced word of w_0: the products
    y_{i_j}(p_j) with val(p_j) = c~_j, one per trial in trial order."""
    datum = group.datum
    word = datum.w0_word(word)
    sp = string_param_from_c(datum, word, c)
    points = []
    for trial in _trials(trials):
        rng = random.Random(repr((seed, "ytilde", tuple(word), sp.c, trial)))
        ps = [random_unit_series(rng).shift(ct) for ct in sp.c_tilde]
        points.append(group.y_product(word, ps))
    return points


def cell_point(group: LoopGroup, gallery: Gallery, rng: random.Random) -> LaurentMatrix:
    """One random point of pi(C(delta)): the ordered product of x_beta(a) over
    the positive wall-crossing sets Phi_+^aff(Delta'_j, Delta_j), j = 0..p
    (gallery.phi_plus, read off W's tables), applied to [t^nu] (a drawn
    nonzero), as t^nu times the factors moved past it:
    x_beta(a t^k) t^nu = t^nu x_beta(a t^{k - <beta, nu>})."""
    datum, nu = group.datum, gallery.weight
    if not is_positively_folded(gallery):
        raise RootDataError("cell sampling requires a positively folded gallery")
    return group.x_product([
        group.x_factor(beta.root, rand_nonzero_int(rng), beta.level - datum.pairing(beta.root, nu))
        for step in gallery.phi_plus for beta in step], nu)


def sample_cell(group: LoopGroup, gallery: Gallery, trials=5, seed=7):
    """Sample points of the cell of gallery (cell_point), one per trial in
    trial order."""
    points = []
    for trial in _trials(trials):
        rng = random.Random(repr((seed, "cell", gallery.delta0.cmat, gallery.flips, trial)))
        points.append(cell_point(group, gallery, rng))
    return points


def crystal_op_sample(group: LoopGroup, points, i, k, eps, seed=7):
    """The points y_i(p) g for the sampled points g, in order, with
    val(p) = -k + eps (Prop. on e_i^k acting on cycles)."""
    moved = []
    for trial, g in enumerate(points):
        rng = random.Random(repr((seed, "crysop", i, k, trial)))
        p = random_unit_series(rng).shift(-k + eps)
        moved.append(group.gen_y(i, p) * g)
    return moved


def rank_one_identity_check(group: LoopGroup, nu_c: int, n_steps: int,
                            q: LaurentSeries) -> bool:
    """[x_{-alpha}(q^{-1} t^{-<alpha,lam+nu>/2}) t^nu] = [x_alpha(q t^{...}) t^lam]
    in SL_2, where lam = nu + n alpha^vee and q is a unit series.  Both sides
    are words, x_beta(p) t^mu = t^mu x_beta(p t^{-<beta, mu>}) as in cell_point,
    so coset_equal's u^{-1} v is the one dense product, and it is never inverted."""
    datum = group.datum
    if datum.rank != 1:
        raise RootDataError("rank-one identity lives in SL_2")
    alpha = datum.simple_root(1)
    nu = Coweight((nu_c,))
    lam = Coweight((nu_c + n_steps,))
    half = datum.pairing(alpha, lam + nu) // 2
    if n_steps == 0:
        return group.coset_equal(group.gen_t(nu), group.gen_t(lam))
    u = group.x_product([group.x_factor(-alpha, q.inverse(), datum.pairing(alpha, nu) - half)], nu)
    v = group.x_product([group.x_factor(alpha, q, half - datum.pairing(alpha, lam))], lam)
    return group.coset_equal(u, v)


def counterexample_matrix(group: LoopGroup) -> LaurentMatrix:
    """The SL_4 product y_2(-1) y_1(1/t) y_3(1/t) y_2(t) y_1(-1/t) y_3(-1/t);
    checked exactly equal to its closed form, lower unitriangular (det 1)."""
    if group.n != 4:
        raise RootDataError("the counterexample lives in SL_4")
    t = LaurentSeries.t_power(1)
    tinv = LaurentSeries.t_power(-1)
    g = group.y_product((2, 1, 3, 2, 1, 3), (-LaurentSeries.one(), tinv, tinv,
                                             t, -tinv, -tinv))
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    expected = LaurentMatrix([
        [one, zero, zero, zero],
        [zero, one, zero, zero],
        [-one, LaurentSeries({0: -1, 1: 1}), one, zero],
        [-tinv, one, zero, one],
    ])
    if not g.equals_exact(expected):
        raise LoopGroupError("counterexample product drifted from its closed form")
    return g


# -- tropical evaluation ---------------------------------------------------------

def trop_eval(func, m, trials=3):
    """Valuation vector of func at val(p_j) = m_j, for func a transition map.

    The transition maps are subtraction-free up to one overall sign
    (Berenstein-Zelevinsky 2001, Fomin-Zelevinsky 1999), so no leading terms
    cancel at positive inputs and the monomials p_j = k t^{m_j}, k = 1..trials,
    give the tropical value exactly.  Each call checks that premise: an output
    that is exactly zero, leading coefficients of both signs over all outputs
    and all k, or valuations that differ between the k raise LoopGroupError.
    A valuation or pivot indistinguishable from zero (PrecisionError) doubles
    the working relative precision, up to 256."""
    ks = [k + 1 for k in _trials(trials)]
    base_prec = prec = default_rel_prec()
    try:
        while True:
            set_default_rel_prec(prec)
            try:
                outs = [func([LaurentSeries.t_power(mj, k) for mj in m]) for k in ks]
                if any(s.is_known_zero and s.is_exact for out in outs for s in out):
                    raise LoopGroupError(f"an output is exactly zero at m = {list(m)}")
                vals = [[s.val() for s in out] for out in outs]
                break
            except PrecisionError:
                if prec == MAX_REL_PREC:
                    raise
                prec = min(2 * prec, MAX_REL_PREC)
    finally:
        set_default_rel_prec(base_prec)
    leads = [[s.leading() for s in out] for out in outs]
    at = f"at m = {list(m)}, k = 1..{trials}"
    if len({lead > 0 for row in leads for lead in row}) > 1:
        shown = "; ".join(", ".join(map(str, row)) for row in leads)
        raise LoopGroupError(f"leading coefficients of mixed sign {at}: {shown}")
    if any(v != vals[0] for v in vals):
        raise LoopGroupError(f"valuations differ {at}: {vals}")
    return vals[0]


def string_to_lusztig_map(group: LoopGroup, word):
    """The evaluator f = z^{-1} o y on K^N (componentwise series in, series out)."""

    def func(ps):
        g = group.y_product(word, ps)
        return group.factor_z(g, word)

    return func


def lusztig_to_string_map(group: LoopGroup, word):
    """The inverse evaluator g = y^{-1} o z."""

    def func(qs):
        z = group.z_of(word, qs)
        return group.factor_y(z, word)

    return func


def lusztig_from_string(group: LoopGroup, word, c_tilde, seed=None):
    """n = f^trop(c~) for f = z^{-1} o y, with the inverse direction
    g^trop(n) = c~ verified; returns the Lusztig parameter vector.  f = g is
    one involution F = y^{-1} o T o y (T(h) the lower Gauss factor of h
    wbar(w0)^{-1}), so the check computes F(F(c~)) = c~ by the second
    algorithm, Gauss factor plus peel, where f reads the chamber minors.
    ``seed`` is ignored; the benchmark's tropical workload still passes it."""
    word = group.datum.w0_word(word)
    c_tilde = group.datum.per_letter(word, c_tilde, "c~")
    n_vec = trop_eval(string_to_lusztig_map(group, word), list(c_tilde))
    back = trop_eval(lusztig_to_string_map(group, word), n_vec)
    if tuple(back) != c_tilde:
        raise LoopGroupError(
            f"inverse tropical map on word {word}: c~ = {c_tilde} "
            f"gave n = {n_vec}, which maps back to {back}")
    return n_vec


def morier_genoud_check(group: LoopGroup, word, c_tilde_node, d, lam: Coweight) -> bool:
    """d_j = <alpha_{i_j}, -w0 lam> + c~_j on a w_0 word, for c~ and d that pass per_letter
    and lam that passes dominant_coweight, d the Lusztig parameter of the contragredient
    twin (lusztig_from_string of its string)."""
    datum = group.datum
    c_tilde_node = datum.per_letter(word := datum.w0_word(word), c_tilde_node, "c~")
    d = datum.per_letter(word, d, "d")
    w0lam = datum.longest_element().act_coweight(datum.dominant_coweight(lam))
    for j, i in enumerate(word):
        shift = datum.pairing(datum.simple_root(i), -w0lam)
        if d[j] != shift + c_tilde_node[j]:
            return False
    return True
