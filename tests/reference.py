"""Root-datum and affine Weyl group formulas that only the tests use."""

from functools import lru_cache

from mvcrystals.affine import AffineRoot


def rho_coweight(datum):
    """rho^vee, the sum of the fundamental coweights."""
    return sum((datum.fundamental_coweight(i) for i in range(1, datum.rank + 1)),
               datum.zero_coweight()).normalized()


@lru_cache(maxsize=None)
def _root_of(datum):
    """Each coroot's root, over all roots of the datum."""
    return {datum.coroot_of(r): r for rt in datum.positive_roots for r in (rt, -rt)}


def act_root(datum, w, root):
    """w(alpha), read off w(alpha^vee), which is the coroot of w(alpha)."""
    return _root_of(datum)[w.act_coweight(datum.coroot_of(root))]


def act_affine_root(g, datum, beta):
    """The affine Weyl group element g applied to the affine root beta."""
    # w(alpha, n) = (w alpha, n); tau_mu(alpha, n) = (alpha, n + <alpha, mu>)
    alpha = act_root(datum, g.finite, beta.root)
    return AffineRoot(alpha, beta.level + datum.pairing(alpha, g.translation))
