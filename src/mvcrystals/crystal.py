"""Finite crystal graphs: axiom validation, characters, the Freudenthal
weight-multiplicity oracle, string parametrizations and isomorphism testing.

The crystals produced by the gallery model realize modules of the Langlands
dual group: weights live in the coweight lattice of the underlying datum and
the crystal's simple roots are the simple coroots.  The Freudenthal recursion
therefore runs entirely on the dual side and is independent of the gallery
model; the two agreeing is an acceptance criterion, not a tautology.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from mvcrystals.rootdata import Coweight, RootDataError, RootDatum

__all__ = [
    "CrystalGraph",
    "StringParam",
    "CrystalError",
    "validate_axioms",
    "character",
    "expected_character",
    "weyl_dimension",
    "string_parameters",
    "string_param_from_c",
    "string_param_from_c_tilde",
    "stable_string",
    "crystal_isomorphic",
    "contragredient_node",
]


class CrystalError(RuntimeError):
    pass


@dataclass
class CrystalGraph:
    """Finite colored graph with weight, eps and phi data per node.

    Colors are 1-based simple-root indices.  `f_map[(node, i)]` is f_i(node)
    when defined, similarly `e_map`; the maps must be mutually inverse.
    """

    datum: RootDatum
    nodes: tuple
    wt: dict
    f_map: dict
    e_map: dict
    eps: dict
    phi: dict
    _index: dict = field(default_factory=dict, repr=False)
    # found once per graph: "highest"/"lowest" -> node, and checked w_0 words
    _ends: dict = field(default_factory=dict, init=False, repr=False)
    _w0_words: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self):
        self._index = {node: k for k, node in enumerate(self.nodes)}

    @property
    def colors(self):
        return tuple(range(1, self.datum.rank + 1))

    def node_id(self, node) -> int:
        return self._index[node]

    def f(self, node, i):
        return self.f_map.get((node, i))

    def e(self, node, i):
        return self.e_map.get((node, i))

    def _end(self, kind, step, what):
        if kind not in self._ends:
            found = [b for b in self.nodes if all(step(b, i) is None for i in self.colors)]
            if len(found) != 1:
                raise CrystalError(f"expected one {what} node, found {len(found)}")
            self._ends[kind] = found[0]
        return self._ends[kind]

    def highest_node(self):
        return self._end("highest", self.e, "source")

    def lowest_node(self):
        return self._end("lowest", self.f, "sink")

    def to_dict(self):
        """Structured export: nodes with weight/dim/eps/phi, colored edges."""
        from mvcrystals.gallery import Gallery, dimension, gallery_to_dict

        nodes = []
        for b in self.nodes:
            rec = {
                "id": self.node_id(b),
                "weight": list(self.wt[b].coords),
                "eps": [self.eps[(b, i)] for i in self.colors],
                "phi": [self.phi[(b, i)] for i in self.colors],
            }
            if isinstance(b, Gallery):
                rec["tuple"] = gallery_to_dict(b)["deltas"]
                rec["dim"] = dimension(b)
            nodes.append(rec)
        edges = [
            {"from": self.node_id(b), "to": self.node_id(c), "color": i}
            for (b, i), c in sorted(self.f_map.items(),
                                    key=lambda kv: (self.node_id(kv[0][0]), kv[0][1]))
        ]
        return {"nodes": nodes, "edges": edges}

    def to_dot(self):
        lines = ["digraph crystal {"]
        for b in self.nodes:
            wt = ",".join(str(a) for a in self.wt[b].coords)
            lines.append(f'  n{self.node_id(b)} [label="{wt}"];')
        for (b, i), c in sorted(self.f_map.items(),
                                key=lambda kv: (self.node_id(kv[0][0]), kv[0][1])):
            lines.append(f'  n{self.node_id(b)} -> n{self.node_id(c)} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def validate_axioms(graph: CrystalGraph):
    """Check Kashiwara's axioms on every node and color; returns violations."""
    datum = graph.datum
    bad = []
    for b in graph.nodes:
        for i in graph.colors:
            eps_b = graph.eps[(b, i)]
            phi_b = graph.phi[(b, i)]
            pair = datum.pairing(datum.simple_root(i), graph.wt[b])
            if phi_b - eps_b != pair:
                bad.append(f"phi-eps != <alpha_{i}, wt> at node {graph.node_id(b)}")
            up, down = graph.e(b, i), graph.f(b, i)
            if up is not None:
                if graph.wt[up] != graph.wt[b] + datum.simple_coroot(i):
                    bad.append(f"wt(e_{i} b) != wt(b)+alpha_{i}^vee at {graph.node_id(b)}")
                if graph.f(up, i) != b:
                    bad.append(f"f_{i} e_{i} != id at {graph.node_id(b)}")
                if graph.eps[(up, i)] != eps_b - 1 or graph.phi[(up, i)] != phi_b + 1:
                    bad.append(f"eps/phi step along e_{i} wrong at {graph.node_id(b)}")
            if down is not None:
                if graph.wt[down] != graph.wt[b] - datum.simple_coroot(i):
                    bad.append(f"wt(f_{i} b) != wt(b)-alpha_{i}^vee at {graph.node_id(b)}")
                if graph.e(down, i) != b:
                    bad.append(f"e_{i} f_{i} != id at {graph.node_id(b)}")
            # normality: eps/phi are the string lengths
            n, cur = 0, b
            while graph.e(cur, i) is not None:
                cur = graph.e(cur, i)
                n += 1
            if n != eps_b:
                bad.append(f"eps_{i} != e-string length at {graph.node_id(b)}")
            n, cur = 0, b
            while graph.f(cur, i) is not None:
                cur = graph.f(cur, i)
                n += 1
            if n != phi_b:
                bad.append(f"phi_{i} != f-string length at {graph.node_id(b)}")
    return bad


def character(graph: CrystalGraph) -> Counter:
    return Counter(graph.wt[b] for b in graph.nodes)


# -- Freudenthal on the Langlands-dual side -------------------------------------

def _dual_form(datum: RootDatum):
    """Symmetric W-invariant form on the coweight space, coroot basis, as its
    least integer multiple (the Weyl dimension and Freudenthal read only
    ratios of its values), and 2 rho^vee, the sum of the positive coroots.

    B[i][j] = (alpha_i^vee, alpha_j^vee) with 2 B[j][i] / B[j][j] = C[j][i],
    so the dual system's Cartan pairings come out of the form."""
    r = datum.rank
    e = [None] * r
    e[0] = Fraction(1)
    # propagate along Dynkin edges: e_j C[j][i] = e_i C[i][j]
    changed = True
    while changed:
        changed = False
        for i in range(r):
            for j in range(r):
                if i != j and datum.cartan[i][j] != 0:
                    if e[i] is not None and e[j] is None:
                        e[j] = e[i] * Fraction(datum.cartan[i][j], datum.cartan[j][i])
                        changed = True
    if any(x is None for x in e):
        raise CrystalError("Dynkin diagram not connected")
    k = math.lcm(*(x.denominator for x in e))
    b = [[int(e[j] * k) * datum.cartan[j][i] for i in range(r)] for j in range(r)]
    if any(b[i][j] != b[j][i] for i in range(r) for j in range(r)):
        raise CrystalError("dual form failed to symmetrize")
    return b, tuple(map(sum, zip(*(co.coords for co in datum.positive_coroots))))


def _form_value(bmat, x, y):
    r = len(bmat)
    return sum(bmat[i][j] * x[i] * y[j] for i in range(r) for j in range(r))


def weyl_dimension(datum: RootDatum, lam: Coweight) -> int:
    """Dimension of the dual-group irreducible with highest weight lam."""
    if not datum.is_dominant(lam):
        raise RootDataError(f"{lam} is not dominant")
    bmat, two_rho = _dual_form(datum)
    lam_rho = [2 * a + b for a, b in zip(lam.coords, two_rho)]  # 2 (lam + rho^vee)
    num = den = 1
    for co in datum.positive_coroots:
        num *= _form_value(bmat, lam_rho, co.coords)
        den *= _form_value(bmat, two_rho, co.coords)
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise CrystalError(f"Weyl dimension of {lam} came out as {Fraction(num, den)}")
    return int(d)


def expected_character(datum: RootDatum, lam: Coweight) -> Counter:
    """Weight multiplicities of the dual-group module L(lam), by Freudenthal.

    Independent of the gallery model; cross-checked internally against the
    Weyl dimension formula."""
    if not datum.is_dominant(lam):
        raise RootDataError(f"{lam} is not dominant")
    if not lam.is_integral():
        raise RootDataError(f"{lam} is not in the coroot lattice")
    bmat, two_rho = _dual_form(datum)
    w0 = datum.longest_element()
    box = (lam - w0.act_coweight(lam)).coords
    dominants = []
    def rec(prefix):
        if len(prefix) == datum.rank:
            mu = lam - Coweight(tuple(prefix))
            if datum.is_dominant(mu):
                dominants.append(mu)
            return
        for n in range(box[len(prefix)] + 1):
            rec(prefix + [n])
    rec([])
    dominants.sort(key=lambda mu: (-sum(mu.coords), mu.coords))
    mult = {}

    def lookup(x: Coweight) -> int:
        return mult.get(datum.dominant_conjugate(x), 0)

    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        acc = 0
        for co in datum.positive_coroots:
            k = 1
            while True:
                x = mu + co.scale(k)
                # weights of L(lam) all satisfy x <= lam, and the condition is
                # monotone in k since coroot coordinates are nonnegative
                if not datum.dominance_leq(x, lam):
                    break
                m = lookup(x)
                if m:
                    acc += m * _form_value(bmat, x.coords, co.coords)
                k += 1
        # |lam + rho|^2 - |mu + rho|^2 = (lam - mu, lam + mu + 2 rho^vee)
        denom = _form_value(bmat, (lam - mu).coords,
                            [a + b + c for a, b, c in zip(lam.coords, mu.coords, two_rho)])
        if denom == 0:
            raise CrystalError("Freudenthal denominator vanished")
        val, rem = divmod(2 * acc, denom)
        if rem or val < 0:
            raise CrystalError(f"Freudenthal multiplicity of {mu} came out as {2 * acc}/{denom}")
        if val:
            mult[mu] = val
    out = Counter()
    for mu, m in mult.items():
        orbit = {mu}
        frontier = [mu]
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(1, datum.rank + 1):
                    y = datum.simple_reflection(i).act_coweight(x)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        for x in orbit:
            out[x] = m
    if sum(out.values()) != weyl_dimension(datum, lam):
        raise CrystalError("Freudenthal total disagrees with the Weyl dimension formula")
    if out[lam] != 1:
        raise CrystalError(f"highest weight {lam} has multiplicity {out[lam]}")
    return out


# -- string parametrization ------------------------------------------------------

@dataclass(frozen=True)
class StringParam:
    """String parameter c along a reduced word of w_0, with its modified form
    c~_j = -c_j - sum_{k>j} c_k <alpha_{i_j}, alpha_{i_k}^vee>."""

    word: tuple
    c: tuple
    c_tilde: tuple


def _c_to_tilde(datum: RootDatum, word, c):
    n = len(word)
    out = []
    for j in range(n):
        s = -c[j]
        for k in range(j + 1, n):
            s -= c[k] * datum.cartan[word[j] - 1][word[k] - 1]
        out.append(s)
    return tuple(out)


def string_param_from_c(datum: RootDatum, word, c) -> StringParam:
    return StringParam(tuple(word), tuple(c), _c_to_tilde(datum, word, c))


def string_param_from_c_tilde(datum: RootDatum, word, c_tilde) -> StringParam:
    """Invert the unitriangular c -> c~ map."""
    n = len(word)
    c = [0] * n
    for j in range(n - 1, -1, -1):
        s = -c_tilde[j]
        for k in range(j + 1, n):
            s -= c[k] * datum.cartan[word[j] - 1][word[k] - 1]
        c[j] = s
    return StringParam(tuple(word), tuple(c), tuple(c_tilde))


def string_parameters(graph: CrystalGraph, node, word) -> StringParam:
    """Successive maximal f-strings along the word; must land on the lowest node."""
    datum = graph.datum
    word = tuple(word)
    if word not in graph._w0_words:
        if not datum.is_w0_word(word):
            raise CrystalError(f"{word} is not a reduced word of w_0")
        graph._w0_words.add(word)
    cur = node
    c = []
    for i in word:
        n = graph.phi[(cur, i)]
        c.append(n)
        for _ in range(n):
            cur = graph.f(cur, i)
    if cur != graph.lowest_node():
        raise CrystalError("string descent did not reach the lowest-weight node")
    return string_param_from_c(datum, word, c)


def stable_string(datum: RootDatum, lambdas, selector, word,
                  graph_factory=None) -> StringParam:
    """String of a B(-infinity) element realized as a stabilized string inside
    a growing tower of B(lambda).

    `selector(graph)` picks the node at each level, returning None when the
    element is not visible in that crystal yet; levels are matched through
    lowest-weight-based strings, so stabilization means two consecutive levels
    report the same parameter."""
    if graph_factory is None:
        from mvcrystals.affine import build_gallery_type
        from mvcrystals.gallery import enumerate_ls

        def graph_factory(lam):
            return enumerate_ls(build_gallery_type(datum, lam))

    prev = None
    for lam in lambdas:
        graph = graph_factory(lam)
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


# -- isomorphism -----------------------------------------------------------------

def crystal_isomorphic(g1: CrystalGraph, g2: CrystalGraph):
    """Match two connected normal crystals from their unique source nodes.

    Returns the node bijection as a dict; raises CrystalError at the first
    mismatch (weights, colors, or graph shape)."""
    b1, b2 = g1.highest_node(), g2.highest_node()
    if g1.wt[b1] != g2.wt[b2]:
        raise CrystalError(
            f"source weights differ: {g1.wt[b1].coords} vs {g2.wt[b2].coords}")
    match = {b1: b2}
    frontier = [b1]
    while frontier:
        nxt = []
        for a in frontier:
            b = match[a]
            for i in g1.colors:
                ca, cb = g1.f(a, i), g2.f(b, i)
                if (ca is None) != (cb is None):
                    raise CrystalError(f"f_{i} defined on one side only at node "
                                       f"{g1.node_id(a)}")
                if ca is None:
                    continue
                if ca in match:
                    if match[ca] != cb:
                        raise CrystalError(f"edge mismatch at color {i}")
                    continue
                if g1.wt[ca] != g2.wt[cb]:
                    raise CrystalError(f"weight mismatch along f_{i}")
                match[ca] = cb
                nxt.append(ca)
        frontier = nxt
    if len(match) != len(g1.nodes) or len(match) != len(g2.nodes):
        raise CrystalError("crystals have different sizes")
    return match


def contragredient_node(g_from: CrystalGraph, node, g_to: CrystalGraph):
    """The node of g_to (= B(-w0 lambda)) matching `node` under the weight-
    negating crystal flip: an f-path from the highest node becomes the same
    e-path from the lowest node."""
    path = []
    cur = node
    guard = len(g_from.nodes) * len(g_from.colors) + 1
    while cur != g_from.highest_node():
        for i in g_from.colors:
            up = g_from.e(cur, i)
            if up is not None:
                path.append(i)
                cur = up
                break
        else:
            raise CrystalError("node not connected to the highest node")
        guard -= 1
        if guard < 0:
            raise CrystalError("flip path search did not terminate")
    # x = f_{i_1}(...f_{i_t}(highest)) becomes x^vee = e_{i_1}(...e_{i_t}(lowest))
    out = g_to.lowest_node()
    for i in reversed(path):
        nxt = g_to.e(out, i)
        if nxt is None:
            raise CrystalError("flip path is not defined in the target crystal")
        out = nxt
    return out
