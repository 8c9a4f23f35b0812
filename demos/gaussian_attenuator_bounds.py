#!/usr/bin/env python3
# All five capacity bounds for the single-mode bosonic thermal attenuator.
#
#   lower     max{0, log2(eta/(1-eta)) - g(N)}   Gaussian-input coherent info
#   extended  max{0, log2(eta/(1-eta)) + g(N)}   degradable extended channel
#   twist     bottleneck bound through the amplifier-then-attenuator split
#   plob      two-way-assisted benchmark bound
#   swat      unassisted benchmark bound
#
# The twist bound never loses to extended or swat.  Against plob the winner
# depends on the regime: twist is tighter at low noise or strong attenuation.

from tabounds import bounds, report

for noise in (0.1, 0.5):
    print(f"--- N = {noise} ---")
    print("eta    lower   extended twist   plob    swat    best    gap")
    for eta in bounds.grid(0.55, 0.95, 0.05):
        r = report("gaussian", eta, noise)
        u = r.uppers
        print(
            f"{eta:4.2f}  {r.lower:7.4f} {u['extended']:7.4f} {u['twist']:7.4f}"
            f" {u['plob']:7.4f} {u['swat']:7.4f} {r.best_upper:7.4f} {r.gap:7.4f}"
        )
    print()

print("At N = 0 every gap closes; for N > 0 the lower/extended pair differ by")
print("exactly twice the thermal entropy g(N), and the best upper bound is the")
print("minimum of twist and plob.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 3.5), sharey=True)
    dense = bounds.grid(0.5, 0.99, 0.005)
    for ax, noise in zip(axes, (0.1, 0.5)):
        reports = [report("gaussian", e, noise) for e in dense]
        ax.plot(dense, [r.lower for r in reports], label="lower")
        for name, style in (("extended", "--"), ("twist", "-"), ("plob", ":"), ("swat", "-.")):
            ax.plot(dense, [r.uppers[name] for r in reports], style, label=name)
        ax.set_title(f"N = {noise}")
        ax.set_xlabel("transmissivity eta")
        ax.set_yscale("log")
        ax.set_ylim(1e-2, 20)
        ax.legend(fontsize=8)
    axes[0].set_ylabel("qubits per channel use")
    fig.tight_layout()
    fig.savefig("gaussian_attenuator_bounds.png", dpi=150)
    print("wrote gaussian_attenuator_bounds.png")
except ImportError:
    pass
