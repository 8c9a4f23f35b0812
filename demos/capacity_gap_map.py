#!/usr/bin/env python3
# How tightly do the bounds pin the bosonic attenuator capacity?
#
# Scans the (eta, N) plane and records the residual window between the best
# upper bound and the lower bound.  The window is zero at N = 0 and stays
# small at low noise.  The capacity, and so the window, is exactly zero
# wherever the channel is entanglement-breaking (N >= eta/(1-eta)), and also
# past the twist line, where the attenuator of the amplifier-then-attenuator
# decomposition has eta' = eta - N(1-eta) <= 1/2 and the twist bound is 0.
# The CSV is written by the command-line 2-D sweep itself, then read back for
# the summary, the zero-window count by regime, and the plot.

import sys
from collections import Counter

import numpy as np

from tabounds import bounds, cli, report

CSV = "capacity_gap_map.csv"
code = cli.main(["sweep", "gaussian", "--sweep", "eta=0.5:0.995:0.005", "--sweep", "noise=0:5:0.05", "--out", CSV])
if code != 0:
    sys.exit(code)
print(f"wrote {CSV}")

data = np.loadtxt(CSV, delimiter=",", skiprows=1)  # columns eta, noise, gap; eta-major rows
etas, noises = np.unique(data[:, 0]), np.unique(data[:, 1])
gap = data[:, 2].reshape(len(etas), len(noises)).T  # gap[i, j] at noises[i], etas[j]

largest = gap.max()
i, j = np.unravel_index(gap.argmax(), gap.shape)
print(f"largest window {largest:.3f} qubits/use at eta={etas[j]:.3f}, N={noises[i]:.2f}")
print(f"window at eta=0.9, N=0.1: {report('gaussian', 0.9, 0.1).gap:.5f}")
print(f"window at eta=0.9, N=0.0: {report('gaussian', 0.9, 0.0).gap:.5f}")


# Each zero-window point by the first regime that explains it.
def regime(eta, noise):
    if bounds.entanglement_breaking(eta, noise):
        return "entanglement-breaking"
    if bounds.gauss_upper_twist(eta, noise) == 0.0:
        return "with a zero twist bound"
    return "at N = 0" if noise == 0.0 else "other"


counts = Counter(regime(eta, noise) for eta, noise, window in data if window == 0.0)
named = ", ".join(f"{counts[name]} {name}" for name in ("entanglement-breaking", "with a zero twist bound", "at N = 0", "other"))
print(f"zero window at {sum(counts.values())} of {len(data)} points: {named}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5.5, 4))
    im = ax.contourf(etas, noises, gap, levels=20, cmap="viridis")
    fig.colorbar(im, ax=ax, label="best upper - lower (qubits/use)")
    ax.set_xlabel("transmissivity eta")
    ax.set_ylabel("environment energy N")
    fig.tight_layout()
    fig.savefig("capacity_gap_map.png", dpi=150)
    print("wrote capacity_gap_map.png")
except ImportError:
    pass
