#!/usr/bin/env python3
# The brute-force route behind every qubit quantity in this package.
#
# Walks one (state, channel) pair through the full unitary dilation: build
# the 8x8 joint state on (system, environment, purifying ancilla), rotate
# system and environment with the beamsplitter, then read every channel of
# interest off as a partial trace.  Each marginal is compared against its
# independent closed form, and the coherent informations come out as plain
# entropy differences.

import numpy as np

from tabounds import (
    QubitAttenuatorParams,
    QubitState,
    apply_attenuator,
    coherent_information_qubit,
    dilated_state,
    partial_trace,
    von_neumann_entropy,
)
from tabounds.qubit import QubitStack

np.set_printoptions(precision=4, suppress=True)

state = QubitState(p=0.35, gamma=0.2 + 0.1j)
channel = QubitAttenuatorParams(eta=0.8, noise=0.15)

rho = dilated_state(state, channel)  # factors (B, F, E')
print("joint 8x8 state: trace =", rho.matrix.trace().real)

# Factor B alone is the ordinary channel output.
b = partial_trace(rho, {0})
print("\nchannel output from the dilation:\n", b.matrix)
print("closed form:\n", apply_attenuator(state, channel).to_density_matrix().matrix)

# Factors (B, E') form the extended output, factor F the weak complement.
# Their closed forms are methods of a stack of pairs, here of one member.
be = partial_trace(rho, {0, 2})
f = partial_trace(rho, {1})
pair = QubitStack([state.p], [state.gamma], [channel.eta], [channel.noise])
print("\nextended output vs closed form, max |diff| =",
      np.abs(be.matrix - pair.extended_output_closed_form()[0]).max())
print("weak complement vs closed form, max |diff| =",
      np.abs(f.matrix - pair.weak_complementary_closed_form()[0]).max())

# Coherent informations are entropy differences of complementary marginals.
s_b = von_neumann_entropy(b)
s_fe = von_neumann_entropy(partial_trace(rho, {1, 2}))
s_be = von_neumann_entropy(be)
s_f = von_neumann_entropy(f)
print(f"\nS(B) = {s_b:.6f}   S(F,E') = {s_fe:.6f}   direct rate   = {s_b - s_fe:+.6f}")
print(f"S(B,E') = {s_be:.6f}   S(F) = {s_f:.6f}   extended rate = {s_be - s_f:+.6f}")
print("library direct  :", f"{coherent_information_qubit(state, channel, 'direct'):+.6f}")
print("library extended:", f"{coherent_information_qubit(state, channel, 'extended'):+.6f}")
print("\nThe extended rate always dominates the direct rate; the two meet when")
print("the environment is pure (N = 0).")
