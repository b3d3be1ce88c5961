"""An independent i-trail reference: dense integer matrices of E_i on
Lambda^k C^n, exponents 0..2 tried at every letter, trails read off the
nonzero entries of the operator products.  It shares no code with the
weight walk in mvcrystals.trails."""

from itertools import combinations

import pytest

from mvcrystals.rootdata import build_root_datum
from mvcrystals.trails import enumerate_itrails, string_cone_inequalities


def _dense_raising(n, k):
    """Basis weights and the dense matrices of E_1..E_{n-1} on Lambda^k C^n."""
    basis = list(combinations(range(1, n + 1), k))
    mats = {}
    for i in range(1, n):
        m = [[0] * len(basis) for _ in basis]
        for col, s in enumerate(basis):
            if i + 1 in s and i not in s:
                m[basis.index(tuple(sorted(set(s) - {i + 1} | {i})))][col] = 1
        mats[i] = m
    weights = [tuple(int(j in s) for j in range(1, n + 1)) for s in basis]
    return weights, mats


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def reference_trails(n, k, word):
    """{(gamma, delta): [(exponents, weights, d), ...] sorted by exponents}.

    E_{i_1}^{n_1} ... E_{i_N}^{n_N} is built left to right; a prefix whose
    product is the zero matrix is dropped, since every extension stays 0."""
    weights, mats = _dense_raising(n, k)
    dim = len(weights)
    found = {}

    def grow(j, prod, exps):
        if not any(any(row) for row in prod):
            return
        if j == len(word):
            for r in range(dim):
                for c in range(dim):
                    if prod[r][c]:
                        found.setdefault((weights[r], weights[c]), []).append(exps)
            return
        power = [[int(r == c) for c in range(dim)] for r in range(dim)]
        for m in range(3):
            grow(j + 1, _matmul(prod, power), exps + (m,))
            power = _matmul(power, mats[word[j]])

    grow(0, [[int(r == c) for c in range(dim)] for r in range(dim)], ())
    out = {}
    for (gamma, delta), exps_list in found.items():
        trails = []
        for exps in sorted(exps_list):
            chain, d = [gamma], []
            for i, m in zip(word, exps):
                alpha = [int(j == i) - int(j == i + 1) for j in range(1, n + 1)]
                nxt = tuple(x - m * a for x, a in zip(chain[-1], alpha))
                pair = sum(x * a for x, a in zip(chain[-1], alpha)) + \
                    sum(x * a for x, a in zip(nxt, alpha))
                assert pair % 2 == 0
                d.append(pair // 2)
                chain.append(nxt)
            assert chain[-1] == delta
            trails.append((exps, tuple(chain), tuple(d)))
        out[gamma, delta] = trails
    return out


def reference_cone(n, word):
    """(deduplicated rows, raw rows) from the trails omega_i -> w0 s_i omega_i."""
    raw = []
    for i in range(1, n):
        omega = [int(j <= i) for j in range(1, n + 1)]
        s_omega = [x - int(j == i) + int(j == i + 1) for j, x in enumerate(omega, 1)]
        pair = (tuple(omega), tuple(reversed(s_omega)))
        raw.extend(d for _, _, d in reference_trails(n, i, word).get(pair, []))
    return tuple(sorted(set(raw))), tuple(raw)


def _w0_words(rank):
    datum = build_root_datum("A", rank)
    return datum.enumerate_reduced_words(datum.longest_element())


WORDS = [(rank, word) for rank in (2, 3) for word in _w0_words(rank)]


def test_reference_word_counts():
    assert len(WORDS) == 2 + 16


@pytest.mark.parametrize("rank, word", WORDS,
                         ids=[f"A{r}-{''.join(map(str, w))}" for r, w in WORDS])
def test_string_cone_matches_dense_reference(rank, word):
    # rows and raw rows, in order
    got = string_cone_inequalities(build_root_datum("A", rank), word)
    assert got == reference_cone(rank + 1, word)


@pytest.mark.parametrize("n, k, word", [
    *(pytest.param(4, k, (2, 1, 3, 2, 1, 3), id=str(k)) for k in (1, 2, 3)),
    *(pytest.param(5, k, (3, 1, 4, 2, 1, 3, 4, 2, 3, 1), id=f"A4-{k}") for k in (1, 2, 3, 4)),
])
def test_every_weight_pair_matches_dense_reference(n, k, word):
    ref = reference_trails(n, k, word)
    wts, _ = _dense_raising(n, k)
    assert sum(map(len, ref.values())) > len(wts)  # more than the empty walks
    for gamma in wts:
        for delta in wts:
            trails = enumerate_itrails(gamma, delta, word)
            assert all(t.word == word for t in trails)
            got = [(t.exponents, t.weights, t.d) for t in trails]
            assert got == ref.get((gamma, delta), []), (gamma, delta)
