"""The rank-3 generator matrices as exact multivariate polynomials.

Everything here is an identity in the polynomial ring Q[alpha, beta, l, m]
(with gamma = l*m), so a pass is a proof for all parameter values at once.

Run with: python demos/03_symbolic_matrices.py
"""

from reflektor import sympoly
from reflektor.matrices import pair_C

s1, s2, s3 = sympoly.GENS
print("s1 =")
for row in s1.rows:
    print("   [%s]" % ", ".join(str(x) for x in row))

print()
print("pairings read off the orders of products of two reflections:")
print("  C(s1, s2) =", pair_C(s1, s2))
print("  C(s2, s3) =", pair_C(s2, s3))
print("  C(s2, s3 conjugated by s1) =", pair_C(s2, s1 * s3 * s1))

print()
print("closed forms for (s_i s_j)^k, checked entrywise for |k| <= 5:")
res = sympoly.verify_power_formulas(5)
print("  %d cases, %d failures" % (res.cases, len(res.failures)))

print()
print("characteristic polynomials of s1 (s2 s3)^k and its two companions:")
res = sympoly.verify_charpoly_catalog(5)
print("  %d cases, %d failures" % (res.cases, len(res.failures)))

print()
print("theta, theta' and the degeneracy invariant:")
print("  theta  =", sympoly.THETA)
print("  theta' =", sympoly.THETA_P)
print("  theta' - theta =", sympoly.THETA_P - sympoly.THETA)
