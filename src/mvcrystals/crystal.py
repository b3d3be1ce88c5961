"""Finite crystal graphs: axiom validation, characters, the Freudenthal
weight-multiplicity oracle, string parametrizations and isomorphism testing.

The crystals produced by the gallery model realize modules of the Langlands
dual group: weights live in the coweight lattice of the underlying datum and
the crystal's simple roots are the simple coroots.  The Freudenthal recursion
therefore runs entirely on the dual side and is independent of the gallery
model; the two agreeing is an acceptance criterion, not a tautology.

`crystal_isomorphic` is the one graph matcher.  Kashiwara's dual crystal
(`CrystalGraph.dual`) swaps e_i with f_i and eps_i with phi_i and negates
the weights, so B(lambda)^vee = B(-w0 lambda) and the contragredient twin of
every node is crystal_isomorphic(B(lambda), B(-w0 lambda).dual()).  The
string parameter c and its modified form c~ are one unitriangular sum, read
in either direction (`_tilde_sum`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, le, mul, sub

from mvcrystals.rootdata import Coweight, RootDataError, RootDatum, _sreflect

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
    "crystal_isomorphic",
]


class CrystalError(RuntimeError):
    pass


class CrystalGraph:
    """Finite colored graph with weight, eps and phi data per node.

    Colors are 1-based simple-root indices.  `f_map[(node, i)]` is f_i(node)
    when defined; the graph builds `e_map` as its inverse, so f_i e_i = id, and
    a non-injective f_i shows in validate_axioms as e_i f_i != id.
    """

    __slots__ = ("datum", "nodes", "wt", "f_map", "e_map", "eps", "phi", "colors", "_index",
                 "_ends")

    def __init__(self, datum: RootDatum, nodes: tuple, wt: dict, f_map: dict, eps: dict,
                 phi: dict):
        self.datum, self.nodes, self.wt, self.eps, self.phi = datum, nodes, wt, eps, phi
        self.f_map, self.e_map = f_map, {(c, i): b for (b, i), c in f_map.items()}
        self.colors = tuple(range(1, datum.rank + 1))
        self._index = {node: k for k, node in enumerate(nodes)}
        self._ends = {}  # found once per graph: "highest"/"lowest" -> node

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

    def dual(self) -> CrystalGraph:
        """Kashiwara's dual crystal on the same nodes: e_i and f_i swap, so do
        eps_i and phi_i, and every weight is negated."""
        return CrystalGraph(self.datum, self.nodes, {b: -w for b, w in self.wt.items()},
                            self.e_map, self.phi, self.eps)

    def _edges(self):
        """Every f_i edge as (source id, colour, target id), sorted."""
        index = self._index
        return sorted((index[b], i, index[c]) for (b, i), c in self.f_map.items())

    def to_dict(self):
        """Structured export: nodes with weight/eps/phi, colored edges."""
        nodes = [{
            "id": self.node_id(b),
            "weight": list(self.wt[b].coords),
            "eps": [self.eps[(b, i)] for i in self.colors],
            "phi": [self.phi[(b, i)] for i in self.colors],
        } for b in self.nodes]
        edges = [{"from": b, "to": c, "color": i} for b, i, c in self._edges()]
        return {"nodes": nodes, "edges": edges}

    def to_dot(self):
        lines = ["digraph crystal {"]
        for b in self.nodes:
            wt = ",".join(str(a) for a in self.wt[b].coords)
            lines.append(f'  n{self.node_id(b)} [label="{wt}"];')
        lines += [f'  n{b} -> n{c} [label="{i}"];' for b, i, c in self._edges()]
        return "\n".join(lines + ["}"])


def _string_lengths(steps: dict, i, nodes):
    """How often steps (e_map or f_map) applies along colour i from each node
    before it is undefined, each string walked once; None for every node of a
    walk that runs into a cycle."""
    out = {}
    for b in nodes:
        path = []
        while b is not None and b not in out:
            out[b] = None  # meeting b again on this walk means a cycle
            path.append(b)
            b = steps.get((b, i))
        n = -1 if b is None else out[b]  # the count of the step past path[-1]
        for b in reversed(path):
            n = out[b] = None if n is None else n + 1
    return out


def validate_axioms(graph: CrystalGraph):
    """Check Kashiwara's axioms on every node and color; returns violations.
    Normality compares eps/phi with the e-/f-string lengths, found by one
    walk of each string (_string_lengths), so a cyclic string is a violation;
    with f_i e_i = id, the lengths at b and e_i b fix eps/phi's step along e_i.  A missing
    weight or eps/phi entry or an edge out of the node set is a violation too, and skips
    only the checks that read it."""
    datum, wt, index, bad = graph.datum, graph.wt, graph._index, []
    e_map, f_map, eps, phi = graph.e_map, graph.f_map, graph.eps, graph.phi
    colours = [(i, datum.pairing_row(datum.simple_root(i).coords), datum.simple_coroot(i),
                _string_lengths(e_map, i, graph.nodes),
                _string_lengths(f_map, i, graph.nodes)) for i in graph.colors]
    for b in graph.nodes:
        if (w := wt.get(b)) is None:
            bad.append(f"no weight at node {index[b]}")
        else:
            x = datum._of_rank(w)  # the pairing's kind and rank check, once per node
        for i, row, co, e_len, f_len in colours:
            eps_b, phi_b = eps.get(key := (b, i)), phi.get(key)
            if eps_b is None or phi_b is None:
                bad += [f"no {name}_{i} entry at node {index[b]}"
                        for name, v in (("eps", eps_b), ("phi", phi_b)) if v is None]
            elif w is not None and phi_b - eps_b != sum(map(mul, row, x)):
                bad.append(f"phi-eps != <alpha_{i}, wt> at node {index[b]}")
            up, down = e_map.get(key), f_map.get(key)
            if up is not None:
                if up not in index:
                    bad.append(f"e_{i} leaves the node set at {index[b]}")
                elif w is not None and (w_up := wt.get(up)) is not None and w_up != w + co:
                    bad.append(f"wt(e_{i} b) != wt(b)+alpha_{i}^vee at {index[b]}")
            if down is not None:
                if down not in index:
                    bad.append(f"f_{i} leaves the node set at {index[b]}")
                elif w is not None and (w_down := wt.get(down)) is not None and w_down != w - co:
                    bad.append(f"wt(f_{i} b) != wt(b)-alpha_{i}^vee at {index[b]}")
                if e_map.get((down, i)) != b:
                    bad.append(f"e_{i} f_{i} != id at {index[b]}")
            if eps_b is not None and e_len[b] != eps_b:
                bad.append(f"eps_{i} != e-string length at {index[b]}")
            if phi_b is not None and f_len[b] != phi_b:
                bad.append(f"phi_{i} != f-string length at {index[b]}")
    return bad


def character(graph: CrystalGraph) -> Counter:
    return Counter(graph.wt[b] for b in graph.nodes)


# -- Freudenthal on the Langlands-dual side -------------------------------------

def _dual_form(datum: RootDatum):
    """The W-invariant form B(x, y) = sum over alpha > 0 of <alpha, x> <alpha, y>
    on the coweight space, as its integer matrix on the coroot basis.  On an
    irreducible system every invariant form is a multiple of it, and
    Freudenthal reads only ratios of its values."""
    rows = [datum.pairing_row(rt.coords) for rt in datum.positive_roots]
    return [[sum(row[i] * row[j] for row in rows) for j in range(datum.rank)]
            for i in range(datum.rank)]


def _form_value(bmat, x, y):
    r = len(bmat)
    return sum(bmat[i][j] * x[i] * y[j] for i in range(r) for j in range(r))


def weyl_dimension(datum: RootDatum, lam: Coweight) -> int:
    """Dimension of the dual-group irreducible with highest weight lam: the
    product over alpha > 0 of <alpha, lam + rho^vee> / <alpha, rho^vee>."""
    datum.dominant_coweight(lam)
    if any(type(datum.pairing(a, lam)) is not int for a in datum.simple_roots()):
        raise RootDataError(f"{lam} is not in the coweight lattice of {datum}")
    two_rho = datum.two_rho_vee
    lam_rho = [2 * a + b for a, b in zip(lam.coords, two_rho)]  # 2 (lam + rho^vee)
    num = den = 1
    for rt in datum.positive_roots:
        row = datum.pairing_row(rt.coords)
        num *= sum(map(mul, row, lam_rho))
        den *= sum(map(mul, row, two_rho))
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise CrystalError(f"Weyl dimension of {lam} came out as {Fraction(num, den)}")
    return int(d)


def expected_character(datum: RootDatum, lam: Coweight) -> Counter:
    """Weight multiplicities of the dual-group module L(lam), by Freudenthal.

    Independent of the gallery model; cross-checked internally against the
    Weyl dimension formula.  Weights are integer coordinate tuples until the
    result is built."""
    lam = datum.lattice_coweight(datum.dominant_coweight(lam))
    lc, cartan, two_rho = lam.coords, datum.cartan, datum.two_rho_vee
    bmat = _dual_form(datum)
    # mu = lam - n is dominant iff C n <= C lam row by row, and every weight
    # has lam - w0 lam >= n >= 0
    lam_pair = [sum(map(mul, row, lc)) for row in cartan]
    box = map(sub, lc, datum.longest_element().act_point(lc))
    dominants = sorted((tuple(map(sub, lc, n)) for n in product(*(range(b + 1) for b in box))
                        if all(sum(map(mul, row, n)) <= p for row, p in zip(cartan, lam_pair))),
                       key=lambda mu: (-sum(mu), mu))
    # (alpha^vee, B alpha^vee) per positive coroot
    coroots = [(co.coords, [sum(map(mul, brow, co.coords)) for brow in bmat])
               for co in datum.positive_coroots]
    mult, conj = {lc: 1}, {}  # conj: weight -> its dominant conjugate, found once
    for mu in dominants[1:]:  # dominants[0] is lam
        acc = 0
        for co, bco in coroots:
            x = tuple(map(add, mu, co))
            # weights of L(lam) all satisfy x <= lam, and the condition is
            # monotone along the string since coroot coordinates are nonnegative
            while all(map(le, x, lc)):
                if (dom := conj.get(x)) is None:
                    dom = conj[x] = datum.dominant_conjugate(Coweight(x)).coords
                m = mult.get(dom, 0)
                if m:
                    acc += m * sum(map(mul, x, bco))
                x = tuple(map(add, x, co))
        # |lam + rho|^2 - |mu + rho|^2 = (lam - mu, lam + mu + 2 rho^vee) > 0: lam - mu is a
        # nonzero sum of simple coroots, each pairing positively with lam + mu + 2 rho^vee
        denom = _form_value(bmat, tuple(map(sub, lc, mu)),
                            [a + b + c for a, b, c in zip(lc, mu, two_rho)])
        val, rem = divmod(2 * acc, denom)
        if rem or val < 0:
            raise CrystalError(f"Freudenthal multiplicity of {Coweight(mu)} came out as "
                               f"{2 * acc}/{denom}")
        if val:
            mult[mu] = val
    out = Counter()
    for mu, m in mult.items():
        orbit = {mu}
        for x in (frontier := [mu]):  # frontier grows until the orbit closes
            for i, row in enumerate(cartan):
                if (y := _sreflect(x, i, row)) not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            out[Coweight(x)] = m
    # out[lam] = 1: mult[lam] is 1, and no other dominant weight's orbit holds lam
    if sum(out.values()) != weyl_dimension(datum, lam):
        raise CrystalError("Freudenthal total disagrees with the Weyl dimension formula")
    return out


# -- string parametrization ------------------------------------------------------

class StringParam:
    """String parameter c along a reduced word of w_0, with its modified form
    c~_j = -c_j - sum_{k>j} c_k <alpha_{i_j}, alpha_{i_k}^vee>."""

    __slots__ = ("word", "c", "c_tilde")

    def __init__(self, word: tuple, c: tuple, c_tilde: tuple):
        self.word, self.c, self.c_tilde = word, c, c_tilde


def _tilde_sum(datum: RootDatum, word, given, from_c):
    """One side of c~_j = -c_j - sum_{k>j} c_k <alpha_{i_j}, alpha_{i_k}^vee> from
    the other: c~ from c (from_c) or c from c~, entry j being -given_j minus
    the sum.  j runs down, so the sum reads c from given or from the entries
    already found."""
    n = len(word)
    out = [0] * n
    c = given if from_c else out
    for j in range(n - 1, -1, -1):
        s, row = -given[j], datum.cartan[word[j] - 1]
        for k in range(j + 1, n):
            s -= c[k] * row[word[k] - 1]
        out[j] = s
    return tuple(out)


def string_param_from_c(datum: RootDatum, word, c) -> StringParam:
    c = datum.per_letter(word := tuple(word), c, "c")
    return StringParam(word, c, _tilde_sum(datum, word, c, True))


def string_param_from_c_tilde(datum: RootDatum, word, c_tilde) -> StringParam:
    """Invert the unitriangular c -> c~ map."""
    c_tilde = datum.per_letter(word := tuple(word), c_tilde, "c~")
    return StringParam(word, _tilde_sum(datum, word, c_tilde, False), c_tilde)


def string_parameters(graph: CrystalGraph, node, word) -> StringParam:
    """Successive maximal f-strings along a reduced word of w_0; must land on
    the lowest node."""
    try:
        word = graph.datum.w0_word(word)
    except RootDataError as err:
        raise CrystalError(str(err)) from None
    if node not in graph._index:
        raise CrystalError(f"the node is not in this crystal of {graph.datum} with highest "
                           f"weight {graph.wt[graph.highest_node()]}")
    cur, c, f = node, [], graph.f_map.get
    for i in word:
        n = graph.phi[(cur, i)]
        c.append(n)
        for _ in range(n):
            cur = f((cur, i))
    if cur != graph.lowest_node():
        raise CrystalError("string descent did not reach the lowest-weight node")
    c = tuple(c)  # one entry per letter of a word w0_word checked: no per_letter
    return StringParam(word, c, _tilde_sum(graph.datum, word, c, True))


# -- isomorphism -----------------------------------------------------------------

def crystal_isomorphic(g1: CrystalGraph, g2: CrystalGraph):
    """Match two connected normal crystals from their unique source nodes.

    Returns the node bijection as a dict; raises CrystalError at the first
    mismatch (weights, colors, or graph shape).  Against g2.dual() the match
    starts at g2's lowest node and follows f_i in g1 by e_i in g2: the
    contragredient flip."""
    b1, b2 = g1.highest_node(), g2.highest_node()
    if g1.wt[b1] != g2.wt[b2]:
        raise CrystalError(
            f"source weights differ: {g1.wt[b1].coords} vs {g2.wt[b2].coords}")
    match = {b1: b2}
    for a in (frontier := [b1]):  # breadth first; frontier grows as nodes match
        b = match[a]
        for i in g1.colors:
            ca, cb = g1.f(a, i), g2.f(b, i)
            if (ca is None) != (cb is None):
                raise CrystalError(f"f_{i} defined on one side only at node {g1.node_id(a)}")
            if ca is None:
                continue
            if ca in match:
                if match[ca] != cb:
                    raise CrystalError(f"edge mismatch at color {i}")
                continue
            if g1.wt[ca] != g2.wt[cb]:
                raise CrystalError(f"weight mismatch along f_{i}")
            match[ca] = cb
            frontier.append(ca)
    if len(match) != len(g1.nodes) or len(match) != len(g2.nodes):
        raise CrystalError("crystals have different sizes")
    return match
