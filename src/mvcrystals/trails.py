"""i-trails in the fundamental (wedge power) representations of SL_n, the
d_j statistics, and string cone inequalities with membership testing.

Matrix realization is type A only: V(omega_k) = Lambda^k C^n with basis the
sorted k-subsets of {1..n}.  On sorted subsets the raising operator E_i
replaces i+1 by i and the lowering operator F_i replaces i by i+1; a single
index swaps in place, so the convention is sign-free.  Weights are recorded
in epsilon coordinates as integer n-tuples of fixed total k, which avoids the
center quotient altogether.
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
        # sparse maps: raising[i][col] = row  (coefficient always 1)
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
        for i in range(1, self.n):
            for j in range(1, self.n):
                for a in range(self.dim):
                    ef = self._apply_single(self.raising[i], self._single(a, self.lowering[j]))
                    fe = self._apply_single(self.lowering[j], self._single(a, self.raising[i]))
                    diff = ef.get(a, 0) - fe.get(a, 0)
                    if i == j:
                        wt = self.weight(a)
                        if diff != wt[i - 1] - wt[i]:
                            raise RootDataError("[E_i,F_i] broke")
                    # off-diagonal commutator has no diagonal matrix entry
                    elif diff != 0:
                        raise RootDataError(f"[E_{i},F_{j}] has a diagonal entry")

    @staticmethod
    def _single(a, op):
        return {op[a]: 1} if a in op else {}

    @staticmethod
    def _apply_single(op, vec):
        out = {}
        for a, coeff in vec.items():
            if a in op:
                out[op[a]] = out.get(op[a], 0) + coeff
        return out

    def weight(self, a) -> tuple:
        """Weight of basis vector a in epsilon coordinates (0/1 vector)."""
        s = self.basis[a]
        return tuple(int(j in s) for j in range(1, self.n + 1))

    def weight_vectors(self, wt: tuple):
        return tuple(a for a in range(self.dim) if self.weight(a) == wt)

    def apply_e(self, i, vec: dict) -> dict:
        return self._apply_single(self.raising[i], vec)

    def highest_weight(self) -> tuple:
        return tuple([1] * self.k + [0] * (self.n - self.k))

    def permuted_weight(self, perm, wt: tuple) -> tuple:
        """w(wt) for a permutation of {1..n} given as a value tuple."""
        out = [0] * self.n
        for j in range(1, self.n + 1):
            out[perm[j - 1] - 1] = wt[j - 1]
        return tuple(out)


def _alpha_eps(n, i):
    """Simple root alpha_i = e_i - e_{i+1} in epsilon coordinates."""
    v = [0] * n
    v[i - 1], v[i] = 1, -1
    return tuple(v)


def enumerate_itrails(rep: WedgeRep, gamma: tuple, delta: tuple, word):
    """All i-trails from gamma to delta in the wedge rep.

    Depth-first over exponent vectors, applied from the right end of the word;
    a branch dies as soon as the partial operator product annihilates V_delta
    or the weight chain leaves the weight set of the rep."""
    n, N = rep.n, len(word)
    weight_set = {rep.weight(a) for a in range(rep.dim)}
    start_cols = rep.weight_vectors(delta)
    if not start_cols or gamma not in weight_set:
        return []
    # vectors: image of each V_delta basis vector under the partial product
    init = [{a: 1} for a in start_cols]
    trails = []

    def rec(j, wt, vecs, exps):
        # vecs = E_{i_{j+1}}^{n_{j+1}} ... E_{i_N}^{n_N} restricted to V_delta
        if j == 0:
            if wt == gamma and any(v for v in vecs):
                weights = [gamma]
                w = gamma
                for step, i in enumerate(word):
                    w = tuple(x - exps[step] * y for x, y in zip(w, _alpha_eps(n, i)))
                    weights.append(w)
                if weights[-1] != delta:
                    raise RootDataError(f"trail of {word} ends at {weights[-1]}, not {delta}")
                d = []
                for step, i in enumerate(word):
                    tot = tuple(x + y for x, y in zip(weights[step], weights[step + 1]))
                    num = tot[i - 1] - tot[i]
                    if num % 2:
                        raise RootDataError("d_j failed to be an integer")
                    d.append(num // 2)
                trails.append(ITrail(tuple(word), tuple(weights), tuple(exps),
                                     tuple(d)))
            return
        i = word[j - 1]
        cur_wt = wt
        cur_vecs = vecs
        nj = 0
        while True:
            if cur_wt in weight_set and any(cur_vecs):
                rec(j - 1, cur_wt, cur_vecs, (nj,) + exps)
            nxt = [rep.apply_e(i, v) for v in cur_vecs]
            if not any(nxt):
                break
            cur_vecs = nxt
            cur_wt = tuple(x + y for x, y in zip(cur_wt, _alpha_eps(n, i)))
            nj += 1
        return

    rec(N, delta, init, ())
    trails.sort(key=lambda t: t.exponents)
    return trails


def _w0_perm(n):
    return tuple(range(n, 0, -1))


def _si_perm(n, i):
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _compose(p, q):
    # (p q)(j) = p(q(j))
    return tuple(p[q[j] - 1] for j in range(len(p)))


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
        target_perm = _compose(_w0_perm(n), _si_perm(n, i))
        delta = rep.permuted_weight(target_perm, gamma)
        for trail in enumerate_itrails(rep, gamma, delta, word):
            raw.append(trail.d)
    dedup = tuple(sorted(set(raw)))
    return dedup, tuple(raw)


def in_string_cone(c, rows) -> bool:
    return all(sum(r * x for r, x in zip(row, c)) >= 0 for row in rows)
