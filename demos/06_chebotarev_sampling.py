"""Chebotarev-style statistics for the mod-l Galois image.

Frobenius characteristic polynomials over all primes up to a degree bound
are compared with the exact characteristic-polynomial distribution of
GL_3(F_l).  As the bound grows the total-variation distance falls toward
the multinomial noise floor; at degree 6 (about 2*10^4 primes) it passes
the 0.1 threshold and the verdict is ConsistentWithFullImage.

Full-scale run (a minute or two):  python demos/06_chebotarev_sampling.py --full
"""

import sys

from drinfeld import (
    DrinfeldModule,
    noise_bound,
    parse_poly,
    sample_frobenii,
    surjectivity_evidence,
)

module = DrinfeldModule.default_family(7, 3)
ell = parse_poly("T+6", module.base)  # (T - 1)
max_deg = 6 if "--full" in sys.argv[1:] else 4

print(f"sampling Frobenius charpolys mod l = T-1 over primes of degree <= {max_deg}")
for bound in range(2, max_deg + 1):
    report = sample_frobenii(module, ell, bound)
    verdict, reasons = surjectivity_evidence(report)
    print(f"  deg <= {bound}: {report.count:6d} primes   "
          f"TV = {report.tv_distance:.4f}   noise ~ "
          f"{noise_bound(report.oracle, report.count):.3f}   {verdict}")
    for reason in reasons:
        print("      -", reason)
