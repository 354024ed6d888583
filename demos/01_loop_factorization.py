"""Factoring matrix loops into holomorphic * exponent * triangular form.

A loop is an invertible matrix of Laurent polynomials in t.  Its normal
form g = L * t^A * R extracts the integer weight vector A (the elementary
divisors over the local ring at t = 0), which drives every stability
computation downstream.
"""

import random

from kstab.laurent import (
    LaurentMatrix,
    LaurentPoly,
    factorize,
    multiply,
    normalize,
    section_degree,
)

print("=== a loop with an off-diagonal pole ===")
g = LaurentMatrix(
    [
        [LaurentPoly({0: 1}), LaurentPoly({})],
        [LaurentPoly({-1: 1}), LaurentPoly({0: 1})],
    ]
)
print("g = [[1, 0], [t^-1, 1]]")
fac = factorize(g)
print("weights:", fac.weights)           # (1, -1): an invisible pole order
print("basis order:", fac.order)
print("left  =", fac.left)
print("right =", fac.right)
print("exact reassembly:", fac.reassemble() == g)

print()
print("=== weights are invariant under holomorphic changes of frame ===")
u = LaurentMatrix(
    [
        [LaurentPoly({0: 1}), LaurentPoly({1: 5})],
        [LaurentPoly({}), LaurentPoly({0: 1})],
    ]
)
print("weights of u*g:", factorize(multiply(u, g)).weights)

print()
print("=== normalization shifts the largest weight to zero ===")
h = LaurentMatrix.exponent_diagonal([3, 1])
print("weights before:", factorize(h).weights)
print("weights after :", factorize(normalize(h)).weights)

print()
print("=== section degrees are pinched between the extreme weights ===")
rng = random.Random(0)
g = LaurentMatrix.exponent_diagonal([0, -1, -2])
for trial in range(4):
    gamma = [
        LaurentPoly({e: rng.randint(-2, 2) for e in range(2)}) for _ in range(3)
    ]
    if all(p.is_zero for p in gamma):
        continue
    d = section_degree(g, gamma)
    print(f"arc {trial}: degree {d}  (bounds 0 .. 2)")
print("determinant pole order:", -g.det().ord(), "= minus the weight sum")
