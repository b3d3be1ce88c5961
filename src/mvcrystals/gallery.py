"""Combinatorial galleries of a fixed minimal type, root operators, positive
folding, dimension, and the LS-gallery crystal.

A gallery is the tuple (delta_0, ..., delta_p) in W x W_{i_1} x ... x W_{i_p}
with prefixes P_j = delta_0...delta_j and faces (none stored) Delta_j =
P_j(A_fund), Delta'_j = P_{j-1}(phi_{i_j}), Delta'_0 = {0} and Delta'_{p+1} =
nu = P_p(0).  The facet Delta'_j, 1 <= j <= p, lies in P_{j-1} = (mu, w) of
A_fund's wall i = i_j: its root is beta' = w(alpha_i), or -w(theta) for i = 0,
at level <beta', mu> - [i = 0], and Delta_{j-1} is on the side where beta' > 0.
So W's tables give the wall (Gallery._walls): beta' > 0 iff l(w s_i) > l(w)
(reversed for i = 0), the wall is one of alpha_c iff w s_i = s_c w, and
Phi_+^aff(Delta'_j, Delta_j) is the positive one of +-beta' iff (beta' > 0) !=
(delta_j = s_{i_j}), else empty (Gallery.phi_plus).  Only Delta'_0, in a wall
of every root, is evaluated at vertices (mvcrystals.affine.phi_plus_aff).  The
same pass gives every colour c the levels of Delta'_0..Delta'_{p+1} (_levels).
Root operators are implemented exactly as face surgery (reflect a window
(j, k), translate the tail) followed by tuple recovery, which decides only the
steps where the mover changes: delta_0 when j = 0, delta_j and delta_k.  The
recovery checks that the result is again a tuple of the same type, which is a
theorem, so a failing check is an implementation bug and raises GalleryError,
which names the datum, the gallery and the colour.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul

from mvcrystals.affine import (
    AffineRoot,
    AffWeylElt,
    GalleryType,
    build_gallery_type,
    face_vertices,
    phi_plus_aff,
    simple_affine_reflection,
)
from mvcrystals.crystal import CrystalError, CrystalGraph, StringParam, string_parameters
from mvcrystals.rootdata import Coweight, RootDatum, WeylElt

__all__ = [
    "Gallery",
    "minimal_gallery",
    "min_wall_level",
    "crystal_maps",
    "fold_window",
    "root_e",
    "root_f",
    "is_positively_folded",
    "dimension",
    "is_ls",
    "enumerate_ls",
    "stable_string",
    "GalleryError",
    "crystal_to_dict",
    "gallery_to_dict",
    "gallery_from_dict",
]


class GalleryError(RuntimeError):
    """Type preservation or enumeration guard failure."""


class Gallery:
    # no __slots__: the cached properties below live in the instance __dict__

    def __init__(self, gtype: GalleryType, delta0: WeylElt, flips: tuple):
        if len(flips) != gtype.p:
            raise GalleryError(f"{len(flips)} flips for a type of length {gtype.p}")
        # flips[j] True means delta_{j+1} = s_{i_{j+1}}, else identity
        self.gtype, self.delta0, self.flips = gtype, delta0, flips
        self._hash = hash((delta0, flips))  # galleries key every crystal dict

    def __eq__(self, other):
        if not isinstance(other, Gallery):
            return NotImplemented
        return self.delta0 is other.delta0 and self.flips == other.flips and \
            (self.gtype is other.gtype or self.gtype == other.gtype)

    def __hash__(self):
        return self._hash

    @cached_property
    def prefixes(self):
        """P_j = delta_0 delta_1 ... delta_j as affine elements (mu, w), j = 0..p:
        P s_i = (mu, w s_i) with w s_i read off w's table, and for the affine
        letter P s_0 = (mu + w(theta^vee), w s_theta)."""
        datum = self.gtype.datum
        theta = simple_affine_reflection(datum, 0).mu
        out = [P := AffWeylElt((0,) * datum.rank, self.delta0)]
        for i, flip in zip(self.gtype.word, self.flips):
            if flip:
                mu, w = P.mu, P.finite
                if not i:
                    mu = tuple([a + sum(map(mul, row, theta)) for a, row in zip(mu, w.cmat)])
                P = AffWeylElt(mu, w._right[i])
            out.append(P)
        return tuple(out)

    @cached_property
    def _walls(self):
        """(ups, levels, lows) off P_{j-1} = (mu, w) and W's tables (module
        docstring): ups[j - 1] is beta' > 0 for the facet Delta'_j, j = 1..p,
        levels[c - 1] is _levels(self, c) and lows[c - 1] its least level."""
        cartan, nu, ups = self.gtype.datum.cartan, self.prefixes[-1].mu, []
        levels = [[0] + [None] * self.gtype.p + [sum(map(mul, row, nu))] for row in cartan]
        lows = [min(0, row[-1]) for row in levels]
        for j, (P, i) in enumerate(zip(self.prefixes, self.gtype.word), 1):
            w = P.finite
            ws, lefts = w._right[i], w._left
            up = (ws.length > w.length) == (i > 0)
            ups.append(up)
            if ws in lefts[1:]:  # w s_i w^-1 = s_c
                c = lefts.index(ws, 1)
                n = sum(map(mul, cartan[c - 1], P.mu))
                n = levels[c - 1][j] = n if i else n - (1 if up else -1)
                lows[c - 1] = min(lows[c - 1], n)
        return tuple(ups), tuple(map(tuple, levels)), tuple(lows)

    @cached_property
    def _origin_roots(self):
        """Phi_+^aff(Delta'_0, Delta_0), evaluated at the vertices: Delta'_0 =
        {0} lies in a wall of every root.  A root operator's child with its
        parent's delta_0 copies it (_surgery)."""
        verts = face_vertices(self.gtype.datum, self.prefixes[0])  # vertex 0 is delta_0(0) = 0
        return phi_plus_aff(self.gtype.datum, verts[:1], verts)

    @cached_property
    def phi_plus(self):
        """Phi_+^aff(Delta'_j, Delta_j), j = 0..p, in phi_plus_aff's order:
        _origin_roots, then the wall root alpha = +-beta' of Delta'_j when Delta_j
        lies beyond it (module docstring), by its coroot +-w(alpha_i^vee) or
        -+w(theta^vee), at level <alpha, mu> -+ [i = 0]."""
        datum, out = self.gtype.datum, [self._origin_roots] + [()] * self.gtype.p
        theta = simple_affine_reflection(datum, 0).mu
        for j, (P, i, up) in enumerate(zip(self.prefixes, self.gtype.word, self._walls[0]), 1):
            if up != self.flips[j - 1]:
                sign = 1 if up else -1
                co = tuple([sign * row[i - 1] if i else -sign * sum(map(mul, row, theta))
                            for row in P.finite.cmat])
                alpha = datum.positive_roots[datum.positive_coroots.index(Coweight(co))]
                n = sum(map(mul, datum.pairing_row(alpha.coords), P.mu)) - (0 if i else sign)
                out[j] = (AffineRoot(alpha, n),)
        return tuple(out)

    @cached_property
    def phi_plus_counts(self):
        """The sizes of phi_plus without building its roots: for j >= 1, one
        root iff Delta_j lies beyond the facet's wall."""
        return (len(self._origin_roots),) + tuple(
            int(up != flip) for up, flip in zip(self._walls[0], self.flips))

    @cached_property
    def weight(self) -> Coweight:
        """nu = P_p(0), the translation part of P_p."""
        return self.prefixes[-1].translation

    def sort_key(self):
        return (self.delta0.cmat, self.flips)


def minimal_gallery(gtype: GalleryType) -> Gallery:
    """gamma_lambda itself: delta_0 = 1 and every delta_j = s_{i_j}."""
    return Gallery(gtype, gtype.datum.identity_elt(), (True,) * gtype.p)


def _levels(g: Gallery, i: int):
    """For each j = 0..p+1, the integer n with Delta'_j inside H_{alpha_i, n},
    else None: 0 for Delta'_0 = {0}, the facets' walls, and <alpha_i, nu> for
    the end vertex nu."""
    return g._walls[1][i - 1]


def _where(g: Gallery, i: int) -> str:
    """An error's context: the datum, g as gallery_from_dict reads it (lambda,
    the type's word, delta_0's reduced word and the flips) and the colour."""
    return f"{g.gtype.datum} gallery {gallery_to_dict(g)}, colour {i}"


def min_wall_level(g: Gallery, i: int) -> int:
    """Smallest integer m such that H_{alpha_i, m} contains some face Delta'_j
    (see _levels), kept by Gallery._walls; Delta'_0 = {0} forces m <= 0."""
    return g._walls[2][i - 1]


def crystal_maps(g: Gallery, i: int):
    """(wt, eps_i, phi_i) with eps_i = -m and phi_i = <alpha_i, nu> - m."""
    m = min_wall_level(g, i)
    return g.weight, -m, _levels(g, i)[-1] - m


def _recover_tuple(g: Gallery, i: int, j: int, k: int, refl: AffWeylElt, tail: AffWeylElt):
    """Tuple recovery (type preservation tripwires) from the new prefixes
    P'_l = P_l for l < j, refl P_l for j <= l < k and tail P_l for l >= k:
    delta_l = 1 iff P'_l = P'_{l-1} and delta_l = s_{i_l} iff
    P'_l = P'_{l-1} s_{i_l}, so no inverse is taken.  Where the mover is the
    same at l - 1 and l both tests reduce to the same tests on P, so only
    delta_0 (when j = 0), delta_j and delta_k are decided."""
    P, flips, delta0 = g.prefixes, list(g.flips), g.delta0
    if j == 0:
        d0_aff = refl * P[0]
        if any(d0_aff.mu):
            raise GalleryError(f"recovered delta_0 has a translation part ({_where(g, i)})")
        delta0 = d0_aff.finite
    for l, before, after in ((j, None, refl), (k, refl, tail)):
        if not 1 <= l <= g.gtype.p:
            continue
        prev, cur = P[l - 1] if before is None else before * P[l - 1], after * P[l]
        if cur == prev:
            flips[l - 1] = False
        elif cur == prev * simple_affine_reflection(g.gtype.datum, g.gtype.word[l - 1]):
            flips[l - 1] = True
        else:
            raise GalleryError(f"recovered delta_{l} is not in W_{{i_{l}}} ({_where(g, i)})")
    return Gallery(g.gtype, delta0, tuple(flips))


def fold_window(g: Gallery, i: int):
    """The window (m, j, k) that e_{alpha_i} reflects, or None when it is
    undefined (m = 0): m is the lowest wall level, k the first index >= 1 with
    Delta'_k in H_{alpha_i, m}, and j the last index before k with Delta'_j
    in H_{alpha_i, m+1}."""
    m = min_wall_level(g, i)
    if m == 0:
        return None
    levels = _levels(g, i)
    k = levels.index(m, 1)
    j = next((j for j in range(k - 1, -1, -1) if levels[j] == m + 1), None)
    if j is None:
        raise GalleryError(f"no fold point at level m+1; gallery is disconnected ({_where(g, i)})")
    return m, j, k


def _surgery(g: Gallery, i: int, level: int, j: int, k: int, sign: int):
    """Reflect Delta_j..Delta_{k-1} in H_{alpha_i, level}, (level alpha_i^vee, s_i),
    translate the tail by sign * alpha_i^vee, and recover the tuple; the weight
    read off the recovered tuple's prefixes must move by sign * alpha_i^vee."""
    datum = g.gtype.datum
    co = datum.simple_coroot(i).coords
    refl = AffWeylElt(tuple([level * a for a in co]), datum.simple_reflection(i))
    tail = AffWeylElt(tuple([sign * a for a in co]), datum.identity_elt())
    out = _recover_tuple(g, i, j, k, refl, tail)
    nu, new = g.prefixes[-1].mu, out.prefixes[-1].mu
    if new != tuple(map(add, nu, tail.mu)):
        raise GalleryError(f"root operator moved the weight {nu} to {new}, "
                           f"not by {tail.mu} ({_where(g, i)})")
    if out.delta0 is g.delta0:
        out._origin_roots = g._origin_roots
    return out


def root_e(g: Gallery, i: int):
    """Raising root operator e_{alpha_i}; None when undefined (m = 0)."""
    window = fold_window(g, i)
    return None if window is None else _surgery(g, i, window[0] + 1, *window[1:], 1)


def root_f(g: Gallery, i: int):
    """Lowering root operator f_{alpha_i}; None when undefined (m = <alpha,nu>)."""
    m, levels = min_wall_level(g, i), _levels(g, i)
    if m == levels[-1]:
        return None
    p = g.gtype.p
    j = max(j for j in range(p + 1) if levels[j] == m)
    k = next((k for k in range(j + 1, p + 2) if levels[k] == m + 1), None)
    if k is None:
        raise GalleryError(f"no wall crossing at level m+1: disconnected gallery ({_where(g, i)})")
    return _surgery(g, i, m, j, k, -1)


def is_positively_folded(g: Gallery) -> bool:
    """Every fold Delta_{j-1} = Delta_j (delta_j = 1) has a nonempty
    Phi_+^aff(Delta'_j, Delta_j)."""
    return all(n for n, flip in zip(g.phi_plus_counts[1:], g.flips) if not flip)


def dimension(g: Gallery) -> int:
    return sum(g.phi_plus_counts)


def is_ls(g: Gallery) -> bool:
    """Positively folded and of maximal dimension for its weight."""
    return is_positively_folded(g) and \
        g.gtype.dim_gamma - dimension(g) == g.gtype.datum.height(g.gtype.lam - g.weight)


def enumerate_ls(gtype: GalleryType, node_cap: int = 10**6):
    """Closure of {gamma_lambda} under the defined root_f operators.

    Asserts every generated gallery is LS and that the set is closed under
    root_e; returns a CrystalGraph whose node payloads are the galleries.
    Every edge ends at the node object itself, not at an equal copy."""
    datum, start = gtype.datum, minimal_gallery(gtype)
    seen, order, edges, frontier = {start: start}, [start], {}, [start]
    while frontier:
        nxt = []
        for node in frontier:
            for i in range(1, datum.rank + 1):
                child = root_f(node, i)
                if child is None:
                    continue
                known = seen.get(child)
                if known is None:
                    if not is_ls(child):
                        raise GalleryError(f"root_f left the LS set ({_where(node, i)})")
                    known = seen[child] = child
                    nxt.append(child)
                    if len(seen) > node_cap:
                        raise GalleryError(f"more than {node_cap} LS nodes ({_where(node, i)})")
                edges[(node, i)] = known
        nxt.sort(key=Gallery.sort_key)
        order.extend(nxt)
        frontier = nxt
    # closure under e, and e/f partial-inverse consistency
    for node in order:
        for i in range(1, datum.rank + 1):
            up = root_e(node, i)
            if up is not None:
                if up not in seen:
                    raise GalleryError(f"LS set is not closed under root_e ({_where(node, i)})")
                if edges.get((up, i)) != node:
                    raise GalleryError(f"e and f disagree on an edge ({_where(node, i)})")
    eps, phi = {}, {}
    for node in order:
        for i in range(1, datum.rank + 1):
            _, eps[(node, i)], phi[(node, i)] = crystal_maps(node, i)
    return CrystalGraph(datum=datum, nodes=tuple(order), wt={node: node.weight for node in order},
                        f_map=edges, eps=eps, phi=phi,
                        e_map={(val, i): key_node for (key_node, i), val in edges.items()})


def stable_string(datum: RootDatum, lambdas, selector, word) -> StringParam:
    """String of a B(-infinity) element realized as a stabilized string inside
    a growing tower of B(lambda).

    `selector(graph)` picks the node at each level, returning None when the
    element is not visible in that crystal yet; levels are matched through
    lowest-weight-based strings, so stabilization means two consecutive levels
    report the same parameter."""
    prev = None
    for lam in lambdas:
        graph = enumerate_ls(build_gallery_type(datum, lam))
        node = selector(graph)
        if node is None:
            # the element is not visible at this level yet; keep growing
            prev = None
            continue
        cur = string_parameters(graph, node, word)
        if prev is not None and prev.c == cur.c:
            return cur
        prev = cur
    raise CrystalError("string parameter did not stabilize within the tower")


# -- serialization -------------------------------------------------------------

def gallery_to_dict(g: Gallery) -> dict:
    return {"lambda": list(g.gtype.lam.coords), "word": list(g.gtype.word),
            "deltas": [list(g.gtype.datum.reduced_word(g.delta0))] + [int(b) for b in g.flips]}


def gallery_from_dict(datum: RootDatum, data: dict) -> Gallery:
    lam = Coweight(tuple(data["lambda"]))
    gtype = build_gallery_type(datum, lam, word=tuple(data["word"]))
    delta0 = datum.word_to_element(tuple(data["deltas"][0]))
    flips = tuple(bool(b) for b in data["deltas"][1:])
    return Gallery(gtype, delta0, flips)


def crystal_to_dict(graph: CrystalGraph) -> dict:
    """graph.to_dict() with each gallery node's tuple (delta_0's reduced word,
    then the flips) and dimension."""
    data = graph.to_dict()
    for rec, g in zip(data["nodes"], graph.nodes):
        rec["tuple"] = gallery_to_dict(g)["deltas"]
        rec["dim"] = dimension(g)
    return data
