"""Words in the rank-2 free group and the Cayley balls they live on.

Every site index in this package is a reduced word over a, b and their
inverses (written A, B).  This script shows reduction, multiplication,
and the shortlex-ordered balls whose sizes grow as 2 * 3^r - 1.
"""

from bernshift import Word, ball, gen_power, inv, mul
from bernshift.freegroup import GEN_A

raw = [0, 3, 2, 2, 1, 0]  # a b^-1 b b a^-1 a
print("reducing  a B b b A a  ->", Word(raw))

g = Word.parse("ab")
h = Word.parse("Ba")
print(f"({g}) * ({h}) =", mul(g, h))
print(f"({g})^-1      =", inv(g))
print("ab * (ab)^-1  =", mul(g, inv(g)))

print("\npowers along the a-ray from bA (lengths are not monotone):")
for k in range(4):
    w = gen_power(Word.parse("bA"), GEN_A, k)
    print(f"  bA * a^{k} = {str(w):5s} length {len(w)}")

print("\nCayley balls, shortlex order (a < A < b < B):")
for r in range(5):
    b = ball(r)
    sample = ", ".join(str(w) for w in list(b)[:9])
    suffix = ", ..." if len(b) > 9 else ""
    print(f"  ball({r}): {len(b):4d} sites = 2*3^{r}-1   [{sample}{suffix}]")
