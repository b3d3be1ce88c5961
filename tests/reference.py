"""Root-datum and affine Weyl group formulas that only the tests use."""

from mvcrystals.affine import AffineRoot


def rho_coweight(datum):
    """rho^vee, the sum of the fundamental coweights."""
    return sum((datum.fundamental_coweight(i) for i in range(1, datum.rank + 1)),
               datum.zero_coweight()).normalized()


def act_affine_root(g, datum, beta):
    """The affine Weyl group element g applied to the affine root beta."""
    # w(alpha, n) = (w alpha, n); tau_mu(alpha, n) = (alpha, n + <alpha, mu>)
    alpha = datum.act_root(g.finite, beta.root)
    return AffineRoot(alpha, beta.level + datum.pairing(alpha, g.translation))
