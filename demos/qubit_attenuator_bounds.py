#!/usr/bin/env python3
# Lower and upper bounds on the quantum capacity of the qubit thermal
# attenuator (generalized amplitude damping channel).
#
# The lower bound is the single-letter coherent information of the channel,
# maximized over diagonal inputs.  The upper bound is the capacity of the
# extended channel, where the receiver also holds the purifying half of the
# thermal environment; that channel is degradable, so its single-letter
# value is its capacity.  At zero temperature the two curves coincide.

from tabounds import bounds, qubit_lower, qubit_upper_extended

etas = bounds.grid(0.5, 0.95, 0.05)

print("eta     N=0.01: lower   upper    N=0.1: lower   upper")
rows = {}
for noise in (0.01, 0.1):
    rows[noise] = [(qubit_lower(e, noise), qubit_upper_extended(e, noise)) for e in etas]

for i, e in enumerate(etas):
    lo1, hi1 = rows[0.01][i]
    lo2, hi2 = rows[0.1][i]
    print(f"{e:4.2f}         {lo1:7.4f} {hi1:7.4f}          {lo2:7.4f} {hi2:7.4f}")

print()
print("The two curves touch at eta = 1/2 (both zero) and separate as the")
print("thermal occupation grows; at N = 0.01 they are nearly indistinguishable.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 3.5), sharey=True)
    dense = bounds.grid(0.5, 0.95, 0.01)
    for ax, noise in zip(axes, (0.01, 0.1)):
        ax.plot(dense, [qubit_lower(e, noise) for e in dense], label="lower (coherent info)")
        ax.plot(dense, [qubit_upper_extended(e, noise) for e in dense], "--",
                label="upper (extended channel)")
        ax.set_title(f"N = {noise}")
        ax.set_xlabel("transmissivity eta")
        ax.set_yscale("log")
        ax.set_ylim(1e-3, 1.2)
        ax.legend()
    axes[0].set_ylabel("qubits per channel use")
    fig.tight_layout()
    fig.savefig("qubit_attenuator_bounds.png", dpi=150)
    print("wrote qubit_attenuator_bounds.png")
except ImportError:
    pass
