"""Combinatorial galleries of a fixed minimal type, root operators, positive
folding, dimension, and the LS-gallery crystal.

A gallery is the tuple (delta_0, ..., delta_p) in W x W_{i_1} x ... x W_{i_p}
with prefixes P_j = delta_0...delta_j (each step P s_i is affine_step) and
faces (none stored) Delta_j = P_j(A_fund), Delta'_j = P_{j-1}(phi_{i_j}),
Delta'_0 = {0} and Delta'_{p+1} = nu = P_p(0).  The facet Delta'_j, 1 <= j <=
p, lies in P_{j-1} = (mu, w) of A_fund's wall i = i_j: its root is beta' =
w(alpha_i), or -w(theta) for i = 0, at level <beta', mu> - [i = 0], and
Delta_{j-1} is on the side where beta' > 0.  So W's tables give the wall
(Gallery._walls): beta' > 0 iff l(w s_i) > l(w) (reversed for i = 0), the wall
is one of alpha_c iff w s_i = s_c w, and Phi_+^aff(Delta'_j, Delta_j) is the
positive one of +-beta' iff (beta' > 0) != (delta_j = s_{i_j}), else empty
(Gallery.phi_plus).  Only Delta'_0, in a wall of every root, is evaluated at
vertices (mvcrystals.affine.phi_plus_aff).  The same pass gives every colour c
the levels of Delta'_0..Delta'_{p+1} and their least (_colour).  A root operator's face
surgery (reflect a window Delta_j..Delta_{k-1} in a wall of alpha_i, translate
the tail by +-alpha_i^vee) toggles delta_j and delta_k, and delta_0 <- s_i
delta_0 when j = 0 (_surgery): the reflection fixes Delta'_j, and on the wall of
Delta'_k it equals the tail's translation.  A child equal to a node enumerate_ls
has found is that node, and its weight, read off prefixes built once from its own
tuple, must move by +-alpha_i^vee; that is a theorem, so a failing check is an
implementation bug and raises GalleryError naming datum, gallery and colour.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul

from mvcrystals.affine import (
    AffineRoot,
    AffWeylElt,
    GalleryType,
    affine_step,
    build_gallery_type,
    face_vertices,
    phi_plus_aff,
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


NODE_CAP = 10**6  # enumerate_ls refuses a crystal with more LS nodes


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
        """P_j = delta_0 delta_1 ... delta_j as affine elements (mu, w), j = 0..p,
        one affine_step per flip."""
        datum = self.gtype.datum
        out = [P := AffWeylElt((0,) * datum.rank, self.delta0)]
        for i, flip in zip(self.gtype.word, self.flips):
            out.append(P := affine_step(datum, P, i) if flip else P)
        return tuple(out)

    @cached_property
    def _walls(self):
        """(ups, colours) off P_{j-1} = (mu, w) and W's tables (module
        docstring): ups[j - 1] is beta' > 0 for the facet Delta'_j, j = 1..p, and
        colours[c - 1] is (levels, least level) for colour c, as _colour reads it."""
        cartan, nu, ups = self.gtype.datum.cartan, self.prefixes[-1].mu, []
        levels = [[0] + [None] * self.gtype.p + [sum(map(mul, row, nu))] for row in cartan]
        for j, (P, i) in enumerate(zip(self.prefixes, self.gtype.word), 1):
            w = P.finite
            ws, lefts = w._right[i], w._left
            up = (ws.length > w.length) == (i > 0)
            ups.append(up)
            if ws in lefts[1:]:  # w s_i w^-1 = s_c
                c = lefts.index(ws, 1)
                n = sum(map(mul, cartan[c - 1], P.mu))
                levels[c - 1][j] = n if i else n - (1 if up else -1)
        return tuple(ups), tuple((tuple(row), min(n for n in row if n is not None))
                                 for row in levels)

    @cached_property
    def _origin_roots(self):
        """Phi_+^aff(Delta'_0, Delta_0), evaluated at the vertices: Delta'_0 =
        {0} lies in a wall of every root.  A root operator's new gallery with
        its parent's delta_0 takes the parent's (_surgery)."""
        verts = face_vertices(self.gtype.datum, self.prefixes[0])  # vertex 0 is delta_0(0) = 0
        return phi_plus_aff(self.gtype.datum, verts[:1], verts)

    @cached_property
    def phi_plus(self):
        """Phi_+^aff(Delta'_j, Delta_j), j = 0..p, in phi_plus_aff's order:
        _origin_roots, then the wall root alpha = +-beta' of Delta'_j when Delta_j
        lies beyond it (module docstring), by its coroot +-w(alpha_i^vee) or
        -+w(theta^vee), at level <alpha, mu> -+ [i = 0]."""
        datum, out = self.gtype.datum, [self._origin_roots] + [()] * self.gtype.p
        for j, (P, i, up) in enumerate(zip(self.prefixes, self.gtype.word, self._walls[0]), 1):
            if up != self.flips[j - 1]:
                sign = 1 if up else -1
                co = tuple([sign * row[i - 1] if i else -sign * sum(map(mul, row, datum.theta_vee))
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


def _colour(g: Gallery, i):
    """(levels, m) of a colour i in 1..rank, else RootDataError: levels[j] is the n with
    Delta'_j in H_{alpha_i, n}, else None (0 for Delta'_0 = {0}, the facets' walls,
    <alpha_i, nu> for j = p + 1), and m their least.  The one reader of _walls' colours."""
    return g._walls[1][g.gtype.datum._node(i, "colour")]


def _where(g: Gallery, i: int) -> str:
    """An error's context: the datum, g as gallery_from_dict reads it (lambda,
    the type's word, delta_0's reduced word and the flips) and the colour."""
    return f"{g.gtype.datum} gallery {gallery_to_dict(g)}, colour {i}"


def min_wall_level(g: Gallery, i: int) -> int:
    """Smallest integer m such that H_{alpha_i, m} contains some face Delta'_j
    (see _colour); Delta'_0 = {0} forces m <= 0."""
    return _colour(g, i)[1]


def crystal_maps(g: Gallery, i: int):
    """(wt, eps_i, phi_i) with eps_i = -m and phi_i = <alpha_i, nu> - m."""
    levels, m = _colour(g, i)
    return g.weight, -m, levels[-1] - m


def _window(g: Gallery, i: int, levels, m):
    """(m, j, k) on the level list levels (_colour's or its reverse), or None
    when its first entry is at the lowest wall level m: k is the first index
    >= 1 at level m, and j the last index before k at level m+1."""
    if levels[0] == m:
        return None
    k = levels.index(m, 1)
    j = next((j for j in range(k - 1, -1, -1) if levels[j] == m + 1), None)
    if j is None:
        raise GalleryError(f"no face at level m+1 = {m + 1} bounds the window at level "
                           f"m = {m}; gallery is disconnected ({_where(g, i)})")
    return m, j, k


def fold_window(g: Gallery, i: int):
    """The window (m, j, k) that e_{alpha_i} reflects (_window on _colour), or
    None when it is undefined (m = 0)."""
    return _window(g, i, *_colour(g, i))


def _surgery(g: Gallery, i: int, j: int, k: int) -> Gallery:
    """The face surgery on the window (j, k) of colour i, on the tuple: toggle
    delta_j and delta_k (1 <= l <= p), and delta_0 <- s_i delta_0 when j = 0, since
    the reflection r fixes Delta'_j (r = s_i if j = 0) and is the tail's
    translation on Delta'_k's wall, so r P_{k-1} = t P_{k-1} s_{i_k}."""
    flips = list(g.flips)
    for l in (j, k):
        if 1 <= l <= g.gtype.p:
            flips[l - 1] = not flips[l - 1]
    if j == 0:
        return Gallery(g.gtype, g.gtype.datum.simple_reflection(i) * g.delta0, tuple(flips))
    out = Gallery(g.gtype, g.delta0, tuple(flips))
    out._origin_roots = g._origin_roots  # delta_0, so Delta_0, is g's
    return out


def _root_op(g: Gallery, i: int, j: int, k: int, sign: int, known) -> Gallery:
    """_surgery(g, i, j, k), as the equal node of known if there is one, whose
    weight, read off its own prefixes, must be g's moved by sign * alpha_i^vee."""
    out = _surgery(g, i, j, k)
    out = known.get(out, out) if known else out
    step = tuple([sign * a for a in g.gtype.datum.simple_coroot(i).coords])
    nu, new = g.prefixes[-1].mu, out.prefixes[-1].mu
    if new != tuple(map(add, nu, step)):
        raise GalleryError(f"root operator moved the weight {nu} to {new}, "
                           f"not by {step} ({_where(g, i)})")
    return out


def root_e(g: Gallery, i: int, known=None):
    """Raising root operator e_{alpha_i}; None when undefined (m = 0).  A
    result equal to a node of the dict known is that node."""
    window = fold_window(g, i)
    return None if window is None else _root_op(g, i, *window[1:], 1, known)


def root_f(g: Gallery, i: int, known=None):
    """Lowering root operator f_{alpha_i}; None when undefined (m = <alpha,nu>).
    Its window is e's on the reversed levels, with l read as p + 1 - l."""
    levels, m = _colour(g, i)
    window, end = _window(g, i, levels[::-1], m), g.gtype.p + 1
    return None if window is None else _root_op(g, i, end - window[2], end - window[1], -1, known)


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


def enumerate_ls(gtype: GalleryType):
    """Closure of {gamma_lambda} under the defined root_f operators.

    Asserts every generated gallery is LS and that the set is closed under
    root_e; returns a CrystalGraph whose node payloads are the galleries.
    Every edge ends at the node object itself: root_f and root_e get the node table."""
    datum, start = gtype.datum, minimal_gallery(gtype)
    seen, order, edges, frontier = {start: start}, [start], {}, [start]
    while frontier:
        nxt = []
        for node in frontier:
            for i in range(1, datum.rank + 1):
                child = root_f(node, i, seen)
                if child is None:
                    continue
                if child not in seen:  # else child is the node found before
                    if not is_ls(child):
                        raise GalleryError(f"root_f left the LS set ({_where(node, i)})")
                    seen[child] = child
                    nxt.append(child)
                    if len(seen) > NODE_CAP:
                        raise GalleryError(f"more than {NODE_CAP} LS nodes ({_where(node, i)})")
                edges[(node, i)] = child
        nxt.sort(key=Gallery.sort_key)
        order.extend(nxt)
        frontier = nxt
    # closure under e, e/f partial-inverse consistency, and eps/phi
    eps, phi = {}, {}
    for node in order:
        for i in range(1, datum.rank + 1):
            up = root_e(node, i, seen)
            if up is not None:
                if up not in seen:
                    raise GalleryError(f"LS set is not closed under root_e ({_where(node, i)})")
                if edges.get((up, i)) != node:
                    raise GalleryError(f"e and f disagree on an edge ({_where(node, i)})")
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
    """The gallery of a gallery_to_dict record; a missing or malformed entry
    raises GalleryError naming it."""
    if missing := [key for key in ("lambda", "word", "deltas") if key not in data]:
        raise GalleryError(f"gallery record has no {missing[0]!r} entry")
    for key in ("lambda", "word"):
        if not isinstance(v := data[key], (list, tuple)) or any(type(x) is not int for x in v):
            raise GalleryError(f"{key} = {v!r} is not a list of integers")
    gtype = build_gallery_type(datum, Coweight(tuple(data["lambda"])), word=tuple(data["word"]))
    if not isinstance(deltas := data["deltas"], (list, tuple)) or not deltas:
        raise GalleryError(f"deltas = {deltas!r} has no delta_0: deltas[0] is its reduced word")
    if not isinstance(deltas[0], (list, tuple)) or any(type(i) is not int for i in deltas[0]):
        raise GalleryError(f"deltas[0] = {deltas[0]!r} is not a word: delta_0 is a list of "
                           f"letters in 1..{datum.rank}")
    for j, b in enumerate(deltas[1:], 1):
        if type(b) is not int or b not in (0, 1):
            raise GalleryError(f"deltas[{j}] = {b!r} is not a flip: delta_{j} is 0 or 1")
    return Gallery(gtype, datum.word_to_element(deltas[0]), tuple(b == 1 for b in deltas[1:]))


def crystal_to_dict(graph: CrystalGraph) -> dict:
    """graph.to_dict() with each gallery node's tuple (delta_0's reduced word,
    then the flips) and dimension."""
    data = graph.to_dict()
    for rec, g in zip(data["nodes"], graph.nodes):
        rec["tuple"] = gallery_to_dict(g)["deltas"]
        rec["dim"] = dimension(g)
    return data
