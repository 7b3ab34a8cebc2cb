"""50-digit values of the noncentral chi-square CDF where scipy's is not exact.

``test_ncx2_cdf_matches_scipy_on_a_grid`` compares ``gaussian._ncx2_cdf``
with ``scipy.stats.ncx2.cdf`` at 1e-12 relative on the grid below.  In the
far lower tail of a large noncentrality scipy's own value is off by more
than that, so at those grid points the test reads the committed
``tests/ncx2_reference.json`` instead.  Each entry is
F = sum_j Pois(j; nc/2) P(n/2 + j, x/2) over j within 40 sqrt(nc/2) + 200 of
nc/2, summed in 50-digit arithmetic at scipy's quantile x.  Rewriting the
table needs mpmath:

    PYTHONPATH=src python tests/ncx2_reference.py
"""

import json
import math
import pathlib

TABLE = pathlib.Path(__file__).with_name("ncx2_reference.json")

# degrees of freedom, and CDF levels whose quantiles are the grid's x
DFS = (1, 2, 3, 8, 24, 1000, 10 ** 4)
LEVELS = (1e-30, 1e-20, 1e-10, 1e-5, 1e-2, 0.5, 0.99, 1 - 1e-6, 1 - 1e-12)


def noncentralities(n):
    return (0.0, 1e-3, 1.0, float(n), 10.0 * n, 1e6)


def exact_cdf(x, n, nc):
    """F(x; n, nc) summed term by term in 50-digit mpmath."""
    import mpmath

    mpmath.mp.dps = 50
    x, nc, h = mpmath.mpf(x), mpmath.mpf(nc), mpmath.mpf(n) / 2
    lam, z = nc / 2, x / 2
    spread = 40 * math.sqrt(float(lam)) + 200
    lo, hi = max(0, int(float(lam) - spread)), int(float(lam) + spread)
    gamma_p = mpmath.gammainc(h + hi, 0, z, regularized=True)
    weight = mpmath.exp(-lam + hi * mpmath.log(lam) - mpmath.loggamma(hi + 1))
    total = weight * gamma_p
    for j in range(hi - 1, lo - 1, -1):
        # P(a) = P(a + 1) + z**a e**-z / Gamma(a + 1)
        gamma_p += mpmath.exp((h + j) * mpmath.log(z) - z - mpmath.loggamma(h + j + 1))
        weight *= (j + 1) / lam
        total += weight * gamma_p
    return total


if __name__ == "__main__":
    from scipy import stats

    rows = []
    for n in DFS:
        for nc in noncentralities(n):
            if nc < 1e4:  # scipy is exact to 1e-12 below this
                continue
            law = stats.ncx2(n, nc)
            for level in LEVELS:
                x = float(law.ppf(level))
                exact = exact_cdf(x, n, nc)
                if abs(law.cdf(x) / exact - 1) > 1e-12:
                    rows.append({"n": n, "nc": nc, "level": level, "x": x, "cdf": float(exact)})
    TABLE.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
