import math
import random
import re
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from mvcrystals import affine
from mvcrystals.affine import (
    AffineRoot,
    AffWeylElt,
    GalleryType,
    aff_length,
    affine_step,
    build_gallery_type,
    enumerate_affine_reduced_words,
    face_vertices,
    fundamentalize,
    identity_aff,
    minimal_word,
    phi_plus_aff,
    simple_affine_reflection,
)
from mvcrystals.gallery import Gallery, enumerate_ls, minimal_gallery
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum
from reference import act_affine_root, alcove, facet, ref_face_level, rho_coweight, \
    translation, unscaled
from stabwork import face_sup

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)


def face(datum, mover, jtype):
    """The vertices of mover(phi_J): its alcove's, less those indexed in J."""
    return tuple(v for i, v in enumerate(face_vertices(datum, mover)) if i not in jtype)


def vertex_face(datum):
    # phi_I = {0}
    return face(datum, identity_aff(datum), frozenset(range(1, datum.rank + 1)))


def test_aff_act_point_examples():
    a1v = A1.simple_coroot(1)
    tau = translation(A1, a1v)
    assert tau.act_point((0,)) == (1,)
    assert identity_aff(A2).act_point((Fraction(1, 3), 2)) == (Fraction(1, 3), 2)
    # s1 applied to rho^vee/4 in A2 pairs to -1/4 against alpha1
    x = tuple(Fraction(a, 4) for a in rho_coweight(A2).coords)
    s1 = simple_affine_reflection(A2, 1)
    y = s1.act_point(x)
    assert A2.pairing_coords(A2.simple_root(1).coords, y) == Fraction(-1, 4)


def test_aff_act_root_examples():
    a1 = A1.simple_root(1)
    tau = translation(A1, A1.simple_coroot(1))
    assert act_affine_root(tau, A1, AffineRoot(a1, 0)) == AffineRoot(a1, 2)
    s1 = simple_affine_reflection(A1, 1)
    assert act_affine_root(s1, A1, AffineRoot(a1, 0)) == AffineRoot(-a1, 0)
    g = tau * s1
    assert act_affine_root(g, A1, AffineRoot(a1, 3)) == AffineRoot(-a1, 1)


def test_aff_act_root_group_action():
    rng = random.Random(7)
    datum = A2
    gens = [simple_affine_reflection(datum, i) for i in range(0, 3)]
    pool = []
    for _ in range(12):
        g = identity_aff(datum)
        for _ in range(rng.randint(0, 5)):
            g = g * rng.choice(gens)
        pool.append(g)
    roots = [AffineRoot(rt, rng.randint(-3, 3))
             for rt in datum.positive_roots for _ in range(2)]
    for _ in range(100):
        g, h = rng.choice(pool), rng.choice(pool)
        beta = rng.choice(roots)
        assert act_affine_root(g, datum, act_affine_root(h, datum, beta)) == \
            act_affine_root(g * h, datum, beta)


def test_simple_affine_reflection_s0():
    s0 = simple_affine_reflection(A1, 0)
    assert s0.act_point((0,)) == (1,)  # s0(0) = alpha^vee
    # s0 fixes H_{theta,1} pointwise
    assert s0.act_point((Fraction(1, 2),)) == (Fraction(1, 2),)
    for datum in (A1, A2, B2):
        for i in range(0, datum.rank + 1):
            s = simple_affine_reflection(datum, i)
            assert s * s == identity_aff(datum)


def test_phi_plus_aff_examples():
    for datum in (A1, A2, B2):
        got = phi_plus_aff(datum, vertex_face(datum), datum.alcove_vertices)
        assert set(got) == {AffineRoot(rt, 0) for rt in datum.positive_roots}
    # (phi_{0} in A1, A_fund) -> empty: A_fund below H_{alpha,1}
    f0 = face(A1, identity_aff(A1), frozenset({0}))
    assert phi_plus_aff(A1, f0, A1.alcove_vertices) == ()


def word_product(datum, word):
    """s_{i_1} ... s_{i_k} in W^aff for word (i_1, ..., i_k) over I^aff."""
    g = identity_aff(datum)
    for i in word:
        g = g * simple_affine_reflection(datum, i)
    return g


def test_fundamentalize():
    z = A2.zero_coweight()
    lf, j, word = fundamentalize(A2, z)
    assert lf == z and j == frozenset({1, 2}) and word == ()
    lf, j, word = fundamentalize(A1, A1.simple_coroot(1))
    assert lf == A1.zero_coweight()
    assert j == frozenset({1})
    assert word_product(A1, word).act_coweight(lf) == A1.simple_coroot(1)
    # interior dominant rational point already in closure: identity fold
    lf, j, word = fundamentalize(A2, Coweight((Fraction(1, 4), Fraction(1, 4))))
    assert word == () and j == frozenset()


def test_minimal_word_basics():
    assert minimal_word(A2, A2.zero_coweight()) == ()
    assert minimal_word(A1, A1.simple_coroot(1)) == (0,)
    theta_vee = Coweight((1, 1))
    w = minimal_word(A2, theta_vee)
    assert w == (0,)
    with pytest.raises(RootDataError):
        minimal_word(A2, Coweight((-1, 0)))


def test_minimal_word_length_matches_dimension_count():
    # |Phi_+| + p = height(lam - w0 lam) + #{alpha > 0 : <alpha, lam> = 0}
    cases = [(A2, Coweight((1, 1))), (A2, Coweight((2, 1))), (A2, Coweight((2, 2))),
             (B2, Coweight((1, 1))), (B2, Coweight((2, 1))),
             (A1, Coweight((2,)))]
    for datum, lam in cases:
        p = len(minimal_word(datum, lam))
        w0 = datum.longest_element()
        ht = datum.height(lam - w0.act_coweight(lam))
        nzero = sum(1 for rt in datum.positive_roots if datum.pairing(rt, lam) == 0)
        assert len(datum.positive_roots) + p == ht + nzero


def ref_greedy_word(datum, lam):
    """The greedy word of w_lambda by the length rule: a candidate is a
    descent when its aff_length is smaller."""
    _, jtype, folds = affine.fundamentalize(datum, lam)
    g = word_product(datum, folds)
    refl = [simple_affine_reflection(datum, i) for i in range(datum.rank + 1)]
    lg, word = aff_length(datum, g), []
    while (j := next((j for j in sorted(jtype)
                      if aff_length(datum, g * refl[j]) < lg), None)) is not None:
        g, lg = g * refl[j], lg - 1
    while lg > 0:
        i = next(i for i in range(datum.rank + 1) if aff_length(datum, refl[i] * g) < lg)
        g, lg = refl[i] * g, lg - 1
        word.append(i)
    return tuple(word)


ALL_DATA = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
            ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("series, rank", ALL_DATA)
def test_greedy_word_matches_the_length_rule(series, rank):
    # any fold order gives a reduced word of w_lambda that passes _check_word;
    # only this oracle sees whether the folds take the smallest violated wall
    datum = build_root_datum(series, rank)
    for lam in map(Coweight, product(range(6), repeat=rank)):
        if datum.is_dominant(lam):
            assert minimal_word(datum, lam) == ref_greedy_word(datum, lam), lam


@pytest.mark.parametrize("series, rank", ALL_DATA)
def test_fold_word_is_the_minimal_element_for_any_lambda(series, rank, deadline):
    # non-dominant and rational lam too: lam_fund lies in closure(A_fund) and J
    # is the set of its walls, the product g of the fold word is reduced, maps
    # lam_fund to lam, and no s_j with j in J shortens it; a lam in the coroot
    # lattice folds to 0, of type {1..rank}, which is what lets a gallery type
    # drop both; the box narrows above rank 2, and only ranks up to 3 take the
    # rational box, to keep the 12 cases near a second
    datum = build_root_datum(series, rank)
    box = range(-2, 3) if rank <= 2 else range(-1, 2)
    lams = list(map(Coweight, product(box, repeat=rank)))
    if rank <= 3:
        rational = (Fraction(-7, 4), Fraction(-2, 3), 0, Fraction(1, 2), Fraction(5, 3), 3)
        lams += map(Coweight, product(rational, repeat=rank))
    for i in range(1, rank + 1):
        om = datum.fundamental_coweight(i)
        lams += [om, -om, om.scale(2)]
    refl = [simple_affine_reflection(datum, i) for i in range(datum.rank + 1)]
    for lam in lams:
        lam_fund, jtype, word = fundamentalize(datum, lam)
        sides = [1 - datum.pairing(datum.highest_root, lam_fund)] + \
            [datum.pairing(a, lam_fund) for a in datum.simple_roots()]
        assert min(sides) >= 0, lam
        assert jtype == frozenset(i for i, v in enumerate(sides) if v == 0), lam
        g = word_product(datum, word)
        lg = aff_length(datum, g)
        assert lg == len(word) and g.act_coweight(lam_fund) == lam, lam
        assert all(aff_length(datum, g * refl[j]) > lg for j in jtype), (lam, jtype)
        if lam.is_integral():
            assert lam_fund == datum.zero_coweight(), lam
            assert jtype == frozenset(range(1, rank + 1)), lam


def test_build_gamma_lambda_trivial():
    gt = build_gallery_type(A2, A2.zero_coweight())
    assert gt.p == 0
    assert minimal_gallery(gt).weight == A2.zero_coweight()


def test_build_gamma_lambda_a1():
    lam = A1.simple_coroot(1)
    gt = build_gallery_type(A1, lam, word=(0,))
    assert gt.p == 1
    # Gamma_0 = A_fund, Gamma'_1 = phi_{0}, Gamma_1 = s0(A_fund)
    gamma = minimal_gallery(gt)
    assert alcove(gamma, 0) == A1.alcove_vertices
    assert facet(gamma, 1) == face(A1, identity_aff(A1), frozenset({0}))
    assert gamma.prefixes[1] == simple_affine_reflection(A1, 0)
    assert gamma.prefixes[1].act_coweight(A1.zero_coweight()) == lam


def test_build_gamma_lambda_rejects_bad_words():
    lam = Coweight((1, 1))
    with pytest.raises(RootDataError):
        build_gallery_type(A2, lam, word=(1,))  # wrong image
    with pytest.raises(RootDataError):
        build_gallery_type(A2, lam, word=(0, 1, 1, 0))  # not reduced
    lam2 = Coweight((2, 1))
    good = minimal_word(A2, lam2)
    longer = (1, 1) + good  # reduced? no: (1,1) cancels; caught as not reduced
    with pytest.raises(RootDataError):
        build_gallery_type(A2, lam2, word=longer)
    # False would be read as the affine node 0, which A1's (1,) has as its word
    with pytest.raises(RootDataError, match="affine node False out of range for A1"):
        build_gallery_type(A1, Coweight((1,)), word=[False])


def test_build_gamma_lambda_rejects_lambda_off_the_coroot_lattice():
    # both are dominant; their LS galleries would end at non-integral weights
    for lam in (Coweight((Fraction(1, 2), 1)), A2.fundamental_coweight(1)):
        with pytest.raises(RootDataError, match="is not in the coroot lattice"):
            build_gallery_type(A2, lam)


def test_gamma_lambda_faces_dominant():
    for datum, lam in [(A2, Coweight((1, 1))), (A2, Coweight((2, 1))),
                       (B2, Coweight((1, 1)))]:
        gamma = minimal_gallery(build_gallery_type(datum, lam))
        p = gamma.gtype.p
        faces = [facet(gamma, j) for j in range(p + 2)] + [alcove(gamma, j) for j in range(p + 1)]
        for verts in faces:
            for i in range(1, datum.rank + 1):
                assert face_sup(datum, verts, -datum.simple_root(i)) <= 0


def test_affine_reduced_words_enumeration():
    lam2 = Coweight((2, 2))
    word = minimal_word(A2, lam2)
    g = word_product(A2, word)
    words = enumerate_affine_reduced_words(A2, g)
    assert word in words
    assert len(words) == 2  # frozen from exhaustive descent enumeration
    for w in words:
        assert len(w) == aff_length(A2, g)


def test_aff_length_translation():
    # l(tau_{theta^vee}) in A2 = <2 rho, theta^vee> = 4
    tau = translation(A2, Coweight((1, 1)))
    assert aff_length(A2, tau) == 4
    assert aff_length(A2, identity_aff(A2)) == 0


# -- the rational apartment, kept as the reference for the integer one --------

SUPPORTED = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2)]


def ref_vertices(datum, mover, jtype=frozenset()):
    """The vertices of mover(phi_J) as exact rationals: 0 when 0 is not in J,
    and omega_i^vee / m_i for finite i not in J, transported by mover."""
    verts = []
    if 0 not in jtype:
        verts.append((0,) * datum.rank)
    for i in range(1, datum.rank + 1):
        if i not in jtype:
            m = datum.marks[i - 1]
            verts.append(tuple(Fraction(a) / m for a in datum.fundamental_coweight(i).coords))
    return [mover.act_point(v) for v in verts]


def ref_face_sup(datum, verts, alpha):
    return max(datum.pairing_coords(alpha.coords, v) for v in verts)


def ref_phi_plus_aff(datum, small, big):
    out = []
    for alpha in datum.positive_roots:
        n = ref_face_level(datum, small, alpha)
        if n is not None and ref_face_sup(datum, big, alpha) > n:
            out.append(AffineRoot(alpha, n))
    return tuple(out)


def ref_aff_length(datum, g):
    verts = ref_vertices(datum, identity_aff(datum))
    x0 = tuple(Fraction(sum(col), len(verts)) for col in zip(*verts))
    x1 = g.act_point(x0)
    total = 0
    for alpha in datum.positive_roots:
        lo, hi = sorted((datum.pairing_coords(alpha.coords, x0),
                         datum.pairing_coords(alpha.coords, x1)))
        total += max(0, math.ceil(hi) - math.floor(lo) - 1)
    return total


def random_aff(datum, rng, max_len):
    g = identity_aff(datum)
    for _ in range(rng.randint(0, max_len)):
        g = g * simple_affine_reflection(datum, rng.randint(0, datum.rank))
    return g


def ref_generator(datum, i):
    """s_i, i in I^aff, as (translation, matrix on coweight coordinates):
    x |-> x - <alpha, x> alpha^vee, plus theta^vee for i = 0 (alpha = theta)."""
    alpha = datum.highest_root if i == 0 else datum.simple_root(i)
    row, co, n = datum.pairing_row(alpha.coords), datum.coroot_of(alpha).coords, datum.rank
    mat = tuple(tuple(int(r == c) - co[r] * row[c] for c in range(n)) for r in range(n))
    return (Coweight(co) if i == 0 else datum.zero_coweight()), mat


def ref_product(g, h):
    """(mu, A)(nu, B) = (mu + A nu, AB) on Coweights and nested tuples."""
    (mu, a), (nu, b) = g, h
    a_nu = Coweight(tuple(sum(x * y for x, y in zip(r, nu.coords)) for r in a))
    return mu + a_nu, tuple(tuple(sum(r[k] * b[k][c] for k in range(len(b)))
                                  for c in range(len(b))) for r in a)


def as_ref(g):
    return g.translation, g.finite.cmat


@pytest.mark.parametrize("series,rank", SUPPORTED, ids=[f"{s}{r}" for s, r in SUPPORTED])
def test_products_and_prefixes_match_the_matrix_reference(series, rank):
    # AffWeylElt keeps (mu, w) with w a table element; the reference keeps
    # (Coweight, integer matrix) and multiplies matrices
    datum = build_root_datum(series, rank)
    rng = random.Random(2000 + rank * 31 + ord(series))
    zero = datum.zero_coweight()
    pool = []
    for _ in range(15):
        word = tuple(rng.randint(0, rank) for _ in range(rng.randint(0, 12)))
        g, ref = identity_aff(datum), (zero, datum.identity_elt().cmat)
        for i in word:
            g, ref = g * simple_affine_reflection(datum, i), ref_product(ref, ref_generator(datum, i))
        assert as_ref(g) == ref, word
        pool.append(g)
        delta0 = rng.choice(datum.weyl_elements())
        flips = tuple(rng.random() < 0.5 for _ in word)
        ref = (zero, delta0.cmat)
        refs = [ref]
        for i, flip in zip(word, flips):
            if flip:
                ref = ref_product(ref, ref_generator(datum, i))
            refs.append(ref)
        prefixes = Gallery(GalleryType(datum, zero, word), delta0, flips).prefixes
        assert [as_ref(P) for P in prefixes] == refs, (word, flips)
    for g, h in zip(pool, pool[1:]):
        gh, (mu, mat) = g * h, ref_product(as_ref(g), as_ref(h))
        assert as_ref(gh) == (mu, mat)
        # equality and hashing read the plain pair
        twin = AffWeylElt(mu.coords, gh.finite)
        assert gh == twin and hash(gh) == hash(twin)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_affine_step_is_the_product_with_the_simple_affine_reflection(series, rank):
    # P s_i read off w's table (and w(theta^vee) for letter 0) equals the
    # general product and the matrix reference, along seeded prefixes
    datum = build_root_datum(series, rank)
    rng = random.Random(4200 + ord(series))
    for i in range(rank + 1):
        assert as_ref(simple_affine_reflection(datum, i)) == ref_generator(datum, i)
    for _ in range(20):
        P = AffWeylElt((0,) * rank, rng.choice(datum.weyl_elements()))
        for _ in range(rng.randint(1, 12)):
            i = rng.randint(0, rank)
            step = affine_step(datum, P, i)
            assert step == P * simple_affine_reflection(datum, i)
            assert as_ref(step) == ref_product(as_ref(P), ref_generator(datum, i))
            P = step
    for i in (-1, rank + 1):
        with pytest.raises(RootDataError, match=f"^affine node {i} out of range for {datum}$"):
            affine_step(datum, P, i)


@pytest.mark.parametrize("series,rank", SUPPORTED, ids=[f"{s}{r}" for s, r in SUPPORTED])
def test_every_face_type_is_integral_and_matches_rational_reference(series, rank):
    # vertex types included: omega_i^vee / m_i pairs non-integrally with
    # some root whenever m_i > 1, which no LS gallery face below reaches
    datum = build_root_datum(series, rank)
    assert unscaled(datum, datum.alcove_vertices) == ref_vertices(datum, identity_aff(datum))
    roots = datum.positive_roots + tuple(-a for a in datum.positive_roots)
    rng = random.Random(rank * 31 + ord(series))
    movers = [identity_aff(datum), random_aff(datum, rng, 8)]
    for size in range(rank + 1):
        for jtype in combinations(range(rank + 1), size):
            for mover in movers:
                verts = face(datum, mover, jtype)
                assert all(type(x) is int for v in verts for x in v)
                ref = ref_vertices(datum, mover, jtype)
                assert unscaled(datum, verts) == ref
                for alpha in roots:
                    assert face_sup(datum, verts, alpha) == ref_face_sup(datum, ref, alpha)
                # phi_plus_aff's integer wall test, on a face of every type
                assert phi_plus_aff(datum, verts, face_vertices(datum, mover)) == \
                    ref_phi_plus_aff(datum, ref, ref_vertices(datum, mover))


LS_CASES = [("A", 2, (2, 2)), ("B", 2, (2, 1)), ("C", 3, (1, 1, 1)),
            ("D", 4, (1, 2, 1, 1)), ("G", 2, (1, 2))]


@pytest.mark.parametrize("series,rank,lam", LS_CASES,
                         ids=[f"{s}{r}-{lam}" for s, r, lam in LS_CASES])
def test_integer_geometry_matches_rational_reference(series, rank, lam):
    datum = build_root_datum(series, rank)
    roots = datum.positive_roots + tuple(-a for a in datum.positive_roots)
    graph = enumerate_ls(build_gallery_type(datum, Coweight(lam)))
    # the end vertex's type J comes from the fold, not from the gallery
    end_type = fundamentalize(datum, Coweight(lam))[1]
    for g in graph.nodes:
        p, word, P = g.gtype.p, g.gtype.word, g.prefixes
        facets = [ref_vertices(datum, identity_aff(datum), range(1, rank + 1))] + \
            [ref_vertices(datum, P[j - 1], {word[j - 1]}) for j in range(1, p + 1)] + \
            [ref_vertices(datum, P[p], end_type)]
        alcoves = [ref_vertices(datum, P[j]) for j in range(p + 1)]
        pairs = [(facet(g, j), ref) for j, ref in enumerate(facets)] + \
            [(alcove(g, j), ref) for j, ref in enumerate(alcoves)]
        for verts, ref in pairs:
            assert unscaled(datum, verts) == ref
            for alpha in roots:
                assert face_sup(datum, verts, alpha) == ref_face_sup(datum, ref, alpha)
        for j in range(p + 1):
            want = ref_phi_plus_aff(datum, facets[j], alcoves[j])
            assert phi_plus_aff(datum, facet(g, j), alcove(g, j)) == want
            assert g.phi_plus[j] == want, (g, j)  # read off W's tables


@pytest.mark.parametrize("series,rank", SUPPORTED, ids=[f"{s}{r}" for s, r in SUPPORTED])
def test_aff_length_matches_rational_reference(series, rank):
    datum = build_root_datum(series, rank)
    rng = random.Random(1000 + rank * 31 + ord(series))
    for _ in range(25):
        g = random_aff(datum, rng, 10)
        assert aff_length(datum, g) == ref_aff_length(datum, g)


def vertex_dominant(datum, g):
    """g(A_fund) is dominant: every simple root is >= 0 at its vertices."""
    return all(sum(map(mul, row, v)) >= 0 for v in face_vertices(datum, g) for row in datum.cartan)


@pytest.mark.parametrize("series,rank", SUPPORTED, ids=[f"{s}{r}" for s, r in SUPPORTED])
def test_closed_form_length_matches_the_reference(series, rank):
    # aff_length is Iwahori-Matsumoto's sum; the reference counts the walls
    # between A_fund's barycenter and its image, on longer words
    datum = build_root_datum(series, rank)
    rng = random.Random(3000 + rank * 31 + ord(series))
    for _ in range(300):
        g = random_aff(datum, rng, 25)
        assert aff_length(datum, g) == ref_aff_length(datum, g), g.mu


@pytest.mark.parametrize("series,rank", SUPPORTED, ids=[f"{s}{r}" for s, r in SUPPORTED])
def test_every_alcove_of_a_gallery_type_is_dominant(series, rank):
    # the theorem that lets build_gallery_type test no alcove: a reduced word
    # of w_lambda walks a minimal gallery between two dominant alcoves, which
    # crosses no wall of the chamber.  Every prefix of every reduced word of
    # w_lambda, lam in [0, 3]^rank with at most 14 letters: 388 words over the
    # 12 data.  The fold word comes from fundamentalize, so a fault in the
    # step shows here and not first as a refused word
    datum = build_root_datum(series, rank)
    for lam in map(Coweight, product(range(4), repeat=rank)):
        if not datum.is_dominant(lam) or len(folds := fundamentalize(datum, lam)[2]) > 14:
            continue
        for word in enumerate_affine_reduced_words(datum, word_product(datum, folds)):
            g = identity_aff(datum)
            for j, i in enumerate(word, 1):
                g = affine_step(datum, g, i)
                assert vertex_dominant(datum, g), (lam, word, j)
            assert build_gallery_type(datum, lam, word).word == word


def test_affine_action_rejects_coordinates_of_another_rank():
    # identity_aff(A2) read (1, 2, 3) as (1, 2)
    for coords in ((1,), (1, 2, 3)):
        for x in (identity_aff(A2), simple_affine_reflection(A2, 0)):
            with pytest.raises(RootDataError, match=re.escape(f"coordinates {coords} do not "
                                                              "have rank 2")):
                x.act_coweight(Coweight(coords))
