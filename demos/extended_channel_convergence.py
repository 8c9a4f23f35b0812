#!/usr/bin/env python3
# The finite-energy route to the extended-channel bound.
#
# The capacity of the extended bosonic attenuator is attained by thermal
# inputs in the infinite-energy limit, where it has the closed form
# log2(eta/(1-eta)) + g(N).  Here the rate is evaluated at finite input
# energy n through the explicit 3-mode covariance dilation, rising
# monotonically to that value.  The same dilation verifies the sign
# identity: the extended rate at transmissivity eta is exactly minus the
# plain rate at 1 - eta.

from tabounds import (
    coherent_info_attenuator_gaussian,
    coherent_info_extended_gaussian,
    gauss_upper_extended,
)

eta, noise = 0.8, 0.2
limit = gauss_upper_extended(eta, noise)

print(f"extended attenuator, eta = {eta}, N = {noise}")
print(f"closed-form limit: {limit:.6f} qubits/use\n")
print("input energy n    rate        shortfall")
for k in range(6):
    n = 10.0**k
    rate = coherent_info_extended_gaussian(n, eta, noise)
    print(f"{n:14g}    {rate:.6f}    {limit - rate:.2e}")

print("\nsign identity through the same dilation (should vanish):")
for n, e, nn in ((3.0, 0.65, 0.4), (40.0, 0.3, 1.2), (7.5, 0.95, 0.05)):
    total = coherent_info_extended_gaussian(n, e, nn) + coherent_info_attenuator_gaussian(
        n, 1 - e, nn
    )
    print(f"  n={n:5g} eta={e:4.2f} N={nn:4.2f}: extended(eta) + direct(1-eta) = {total:+.2e}")
