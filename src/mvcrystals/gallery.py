"""Combinatorial galleries of a fixed minimal type, root operators, positive
folding, dimension, and the LS-gallery crystal.

A gallery is the tuple (delta_0, ..., delta_p) in W x W_{i_1} x ... x W_{i_p};
its faces are derived as vertex tuples (see mvcrystals.affine):
Delta_j = delta_0...delta_j(A_fund), Delta'_j = delta_0...delta_{j-1}(phi_{i_j})
spanned by the vertices of Delta_{j-1} other than vertex i_j, and
Delta'_{p+1} the end vertex.
Root operators are implemented exactly as face surgery (reflect a window,
translate the tail) followed by tuple recovery; the recovery checks that the
result is again a tuple of the same type, which is a theorem, so a failing
check is an implementation bug and raises GalleryError, which names the
datum, the gallery and the colour.  A child of a root operator reads its
alcoves, |Phi_+^aff| counts and wall levels off its parent outside the
window and evaluates only the window (_table); its prefixes, so its weight,
are rebuilt from the recovered tuple.
"""

from __future__ import annotations

from functools import cached_property
from operator import add

from mvcrystals.affine import (
    AffineRoot,
    AffWeylElt,
    GalleryType,
    affine_reflection,
    build_gallery_type,
    face_level,
    face_vertices,
    identity_aff,
    phi_plus_aff,
    simple_affine_reflection,
    translation,
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
        # color i -> the wall level of each face Delta'_j (see _levels)
        self._wall_levels = {}
        self._hash = hash((delta0, flips))  # galleries key every crystal dict
        # (parent, j, k, shift) of the root operator that made this gallery
        self._parent = None

    def __eq__(self, other):
        if not isinstance(other, Gallery):
            return NotImplemented
        return self.delta0 is other.delta0 and self.flips == other.flips and \
            (self.gtype is other.gtype or self.gtype == other.gtype)

    def __hash__(self):
        return self._hash

    @cached_property
    def prefixes(self):
        """P_j = delta_0 delta_1 ... delta_j as affine elements, j = 0..p."""
        datum = self.gtype.datum
        out = [AffWeylElt(datum.zero_coweight(), self.delta0)]
        for i, flip in zip(self.gtype.word, self.flips):
            out.append(out[-1] * simple_affine_reflection(datum, i) if flip else out[-1])
        return tuple(out)

    @cached_property
    def alcoves(self):
        """The vertices of Delta_j, j = 0..p, indexed like A_fund's; a fold
        (delta_j = 1) repeats Delta_{j-1}."""
        datum, P, flips = self.gtype.datum, self.prefixes, self.flips
        step = self._parent and [datum.apartment_scale * a for a in self._parent[3].coords]
        return _table(self, vars, "alcoves", self.gtype.p + 1,
                      lambda l, out: (face_vertices(datum, P[l]) if l == 0 or flips[l - 1]
                                      else out[-1]),
                      lambda verts: tuple(tuple(map(add, v, step)) for v in verts))

    def alcove(self, j):
        return self.alcoves[j]

    def facet(self, j):
        """The vertices of Delta'_j.  j = 0 gives the origin vertex, j = p + 1
        the end vertex."""
        if j == 0:
            return self.gtype.datum.alcove_vertices[:1]
        if j == self.gtype.p + 1:
            return tuple(v for i, v in enumerate(self.alcoves[-1]) if i not in self.gtype.lam_jtype)
        verts, i = self.alcoves[j - 1], self.gtype.word[j - 1]
        return verts[:i] + verts[i + 1:]

    @cached_property
    def phi_plus_counts(self):
        """|Phi_+^aff(Delta'_j, Delta_j)| for j = 0..p, each evaluated once;
        translating both faces keeps it."""
        datum = self.gtype.datum
        return _table(self, vars, "phi_plus_counts", self.gtype.p + 1,
                      lambda j, _: len(phi_plus_aff(datum, self.facet(j), self.alcove(j))),
                      lambda n: n)

    @cached_property
    def weight(self) -> Coweight:
        nu = self.prefixes[-1].act_coweight(self.gtype.lam_fund)
        if not nu.is_integral():
            raise GalleryError(f"gallery weight {nu.coords} is not integral")
        return nu

    def sort_key(self):
        return (self.delta0.cmat, self.flips)


def minimal_gallery(gtype: GalleryType) -> Gallery:
    """gamma_lambda itself: delta_0 = 1 and every delta_j = s_{i_j}."""
    return Gallery(gtype, gtype.datum.identity_elt(), (True,) * gtype.p)


def _table(g: Gallery, tables, key, n, fresh, moved, lo=0):
    """The n entries of g's per-face table key, tables(h) holding h's.  Entry
    l is fresh(l, entries before l) in the window j + lo..k-1 of the surgery
    (parent, j, k, shift) that made g; below it the parent's entries are
    kept, from k on they are moved by the tail shift.  Without a parent, or
    if the parent has not computed the table, the window is 0..n-1."""
    old = g._parent and tables(g._parent[0]).get(key)
    if old is None:
        old, j, k = (), 0, n
    else:
        j, k = g._parent[1] + lo, g._parent[2]
    out = list(old[:j])
    for l in range(j, k):
        out.append(fresh(l, out))
    out += map(moved, old[k:])
    return tuple(out)


def _levels(g: Gallery, i: int):
    """For each j, the integer n with Delta'_j inside H_{alpha_i, n}, else None.
    A child's Delta'_j is its parent's up to the window start, which lies in
    the reflecting wall."""
    levels = g._wall_levels.get(i)
    if levels is None:
        datum = g.gtype.datum
        alpha = datum.simple_root(i)
        step = g._parent and datum.pairing(alpha, g._parent[3])
        levels = g._wall_levels[i] = _table(
            g, lambda h: h._wall_levels, i, g.gtype.p + 2,
            lambda j, _: face_level(datum, g.facet(j), alpha),
            lambda n: n if n is None else n + step, lo=1)
    return levels


def _where(g: Gallery, i: int) -> str:
    """An error's context: the datum, g as gallery_from_dict reads it (lambda,
    the type's word, delta_0's reduced word and the flips) and the colour."""
    datum = g.gtype.datum
    return f"{datum.series}{datum.rank} gallery {gallery_to_dict(g)}, colour {i}"


def min_wall_level(g: Gallery, i: int) -> int:
    """Smallest integer m such that H_{alpha_i, m} contains some face Delta'_j
    (see face_level); Delta'_0 = {0} forces m <= 0."""
    best = min(n for n in _levels(g, i) if n is not None)
    if best > 0:
        raise GalleryError(f"lowest wall level {best} > 0 although Delta'_0 = {{0}} "
                           f"({_where(g, i)})")
    return best


def crystal_maps(g: Gallery, i: int):
    """(wt, eps_i, phi_i) with eps_i = -m and phi_i = <alpha_i, nu> - m."""
    datum, m, nu = g.gtype.datum, min_wall_level(g, i), g.weight
    return nu, -m, datum.pairing(datum.simple_root(i), nu) - m


def _recover_tuple(g: Gallery, movers, i: int):
    """Tuple recovery from per-alcove movers g_l (type preservation tripwires).

    The new prefixes are P'_l = g_l P_l; delta_l = 1 iff P'_l = P'_{l-1} and
    delta_l = s_{i_l} iff P'_l = P'_{l-1} s_{i_l}, so no inverse is taken.
    Where g_l = g_{l-1} both tests reduce to the same tests on P, so the old
    delta_l is kept and only the steps where the mover changes are decided."""
    datum, P = g.gtype.datum, g.prefixes
    d0_aff = movers[0] * P[0]
    if not d0_aff.is_finite:
        raise GalleryError(f"recovered delta_0 has a translation part ({_where(g, i)})")
    flips = list(g.flips)
    for l in range(1, g.gtype.p + 1):
        if movers[l] == movers[l - 1]:
            continue
        prev, cur = movers[l - 1] * P[l - 1], movers[l] * P[l]
        if cur == prev:
            flips[l - 1] = False
        elif cur == prev * simple_affine_reflection(datum, g.gtype.word[l - 1]):
            flips[l - 1] = True
        else:
            raise GalleryError(f"recovered delta_{l} is not in W_{{i_{l}}} ({_where(g, i)})")
    return Gallery(g.gtype, d0_aff.finite, tuple(flips))


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
    """Reflect Delta_j..Delta_{k-1} in H_{alpha_i, level}, translate the tail
    by sign * alpha_i^vee, and recover the tuple; the weight must move by it.
    The child keeps (g, j, k, shift) to inherit g's geometry (see _table)."""
    datum = g.gtype.datum
    alpha = datum.simple_root(i)
    shift = datum.coroot_of(alpha).scale(sign)
    refl = affine_reflection(datum, AffineRoot(alpha, level))
    tail = translation(datum, shift)
    movers = [identity_aff(datum)] * j + [refl] * (k - j) + [tail] * (g.gtype.p + 1 - k)
    out = _recover_tuple(g, movers, i)
    if out.weight != g.weight + shift:
        raise GalleryError(f"root operator moved the weight {g.weight.coords} to "
                           f"{out.weight.coords}, not by {shift.coords} ({_where(g, i)})")
    out._parent = (g, j, k, shift)
    return out


def root_e(g: Gallery, i: int):
    """Raising root operator e_{alpha_i}; None when undefined (m = 0)."""
    window = fold_window(g, i)
    return None if window is None else _surgery(g, i, window[0] + 1, *window[1:], 1)


def root_f(g: Gallery, i: int):
    """Lowering root operator f_{alpha_i}; None when undefined (m = <alpha,nu>)."""
    datum = g.gtype.datum
    m = min_wall_level(g, i)
    if m == datum.pairing(datum.simple_root(i), g.weight):
        return None
    p, levels = g.gtype.p, _levels(g, i)
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
