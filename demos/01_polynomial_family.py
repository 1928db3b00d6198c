"""Tour of the integer polynomial family u_n and its primitive factors.

Run with: python demos/01_polynomial_family.py
"""

from reflektor.upoly import u_poly, v_poly, theta, prime_power_class, \
    format_poly
from reflektor.identities import check_identity, factorization_check

print("First members of the family:")
for n in range(1, 11):
    print("  u_%-2d = %s" % (n, format_poly(u_poly(n))))

print()
print("Each u_n splits into primitive factors v_d over the divisors d | n:")
for n in (6, 10, 12):
    parts = " * ".join("(%s)" % format_poly(v_poly(d))
                       for d in range(1, n + 1) if n % d == 0 and d > 2)
    print("  u_%-2d = %s" % (n, parts))

rep = factorization_check(100)
print("  factorization verified for n <= 100:", rep.passed)

print()
print("The step-2 recurrence ties everything together:")
rep = check_identity("AR", -25, 25)
print("  u_{n+4} = (X-2) u_{n+2} - u_n on |n| <= 25:",
      "pass" if rep.passed else rep.records[0][2])

print()
print("The signed constant term theta(v_n) detects indices n = 2 p^k:")
for n in (4, 6, 7, 18, 50, 54):
    print("  theta(v_%-2d) = %d   (classifier says %d)"
          % (n, theta(v_poly(n)), prime_power_class(n)))
