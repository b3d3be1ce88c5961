"""i-trails in the fundamental (wedge power) representations of SL_n, the
d_j statistics, and string cone inequalities with membership testing.

Matrix realization is type A only: V(omega_k) = Lambda^k C^n with basis the
sorted k-subsets of {1..n}.  On sorted subsets the raising operator E_i
replaces i+1 by i and the lowering operator F_i replaces i by i+1; a single
index swaps in place, so the convention is sign-free.  Weights are recorded
in epsilon coordinates as integer n-tuples of fixed total k (the 0/1
indicator of the subset), which avoids the center quotient altogether.

Every weight space is a line and E_i^2 = 0, so an i-trail is a walk on
k-subsets in which each letter applies its E_i once or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from mvcrystals.rootdata import RootDataError, RootDatum

__all__ = [
    "WedgeRep",
    "ITrail",
    "enumerate_itrails",
    "string_cone_inequalities",
    "in_string_cone",
]


@dataclass(frozen=True)
class ITrail:
    word: tuple
    weights: tuple      # epsilon-coordinate tuples, length N + 1
    exponents: tuple    # n_j >= 0 with gamma_{j-1} - gamma_j = n_j alpha_{i_j}
    d: tuple            # d_j = <gamma_{j-1} + gamma_j, alpha_{i_j}^vee> / 2


class WedgeRep:
    """Lambda^k C^n with exact integer raising/lowering operators."""

    def __init__(self, n, k):
        if not 1 <= k <= n - 1:
            raise RootDataError(f"wedge power k={k} out of range for n={n}")
        self.n = n
        self.k = k
        self.basis = tuple(combinations(range(1, n + 1), k))
        self.index = {s: a for a, s in enumerate(self.basis)}
        self.dim = len(self.basis)
        # index maps: raising[i][col] = row  (coefficient always 1)
        self.raising = {i: {} for i in range(1, n)}
        self.lowering = {i: {} for i in range(1, n)}
        for a, s in enumerate(self.basis):
            for i in range(1, n):
                if i + 1 in s and i not in s:
                    t = tuple(sorted(set(s) - {i + 1} | {i}))
                    self.raising[i][a] = self.index[t]
                if i in s and i + 1 not in s:
                    t = tuple(sorted(set(s) - {i} | {i + 1}))
                    self.lowering[i][a] = self.index[t]
        self._check_commutation()

    def _check_commutation(self):
        # [E_i, F_j] = delta_ij <wt, alpha_i^vee> on every basis vector
        for i, e in self.raising.items():
            for j, f in self.lowering.items():
                for a in range(self.dim):
                    diff = (e.get(f.get(a)) == a) - (f.get(e.get(a)) == a)
                    if i == j:
                        wt = self.weight(a)
                        if diff != wt[i - 1] - wt[i]:
                            raise RootDataError("[E_i,F_i] broke")
                    # off-diagonal commutator has no diagonal matrix entry
                    elif diff != 0:
                        raise RootDataError(f"[E_{i},F_{j}] has a diagonal entry")

    def weight(self, a) -> tuple:
        """Weight of basis vector a in epsilon coordinates (0/1 vector)."""
        s = self.basis[a]
        return tuple(int(j in s) for j in range(1, self.n + 1))

    def highest_weight(self) -> tuple:
        return tuple([1] * self.k + [0] * (self.n - self.k))


def enumerate_itrails(rep: WedgeRep, gamma: tuple, delta: tuple, word):
    """All i-trails from gamma to delta in the wedge rep, by exponents.

    Walk one basis index from delta's subset, reading the word from the
    right: each letter either skips (n_j = 0) or applies E_{i_j} (n_j = 1).
    The walks that end at gamma's subset are the trails."""
    n, word = rep.n, tuple(word)
    if not all(1 <= i < n for i in word):
        raise RootDataError(f"word {word} has a letter outside 1..{n - 1}")
    start = rep.index.get(tuple(j for j, x in enumerate(delta, 1) if x))
    if start is None or rep.weight(start) != delta:
        return []
    walks = [((), start)]
    for i in reversed(word):
        up, nxt = rep.raising[i], []
        for exps, a in walks:
            nxt.append(((0,) + exps, a))
            if a in up:
                nxt.append(((1,) + exps, up[a]))
        walks = nxt
    trails = []
    for exps in sorted(exps for exps, end in walks if rep.weight(end) == gamma):
        weights, d = [gamma], []
        for i, m in zip(word, exps):
            w = list(weights[-1])
            w[i - 1] -= m
            w[i] += m
            num = weights[-1][i - 1] + w[i - 1] - weights[-1][i] - w[i]
            if num % 2:
                raise RootDataError("d_j failed to be an integer")
            d.append(num // 2)
            weights.append(tuple(w))
        if weights[-1] != delta:
            raise RootDataError(f"trail of {word} ends at {weights[-1]}, not {delta}")
        trails.append(ITrail(word, tuple(weights), exps, tuple(d)))
    return trails


def string_cone_inequalities(datum: RootDatum, word):
    """One inequality row per i-trail from omega_i to w0 s_i omega_i in
    V(omega_i), for every i; returns (deduplicated rows, raw rows)."""
    if datum.series != "A":
        raise RootDataError("string cone via i-trails is implemented for type A only")
    n = datum.rank + 1
    if not datum.is_w0_word(word):
        raise RootDataError(f"{word} is not a reduced word of w_0")
    raw = []
    for i in range(1, n):
        rep = WedgeRep(n, i)
        gamma = rep.highest_weight()
        # s_i swaps the epsilon coordinates i and i+1; w0 reverses them all
        wt = list(gamma)
        wt[i - 1], wt[i] = wt[i], wt[i - 1]
        raw.extend(t.d for t in enumerate_itrails(rep, gamma, tuple(wt[::-1]), word))
    return tuple(sorted(set(raw))), tuple(raw)


def in_string_cone(c, rows) -> bool:
    return all(sum(r * x for r, x in zip(row, c, strict=True)) >= 0 for row in rows)
