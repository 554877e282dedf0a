"""Unsupervised optimum-path forest clustering on synthetic blobs.

Builds the k-NN graph, the kernel densities and the optimum-path forest for
each neighborhood size up to the first zero normalized cut, prints the cut
per k, and shows which k the automatic selection picks. Saves a scatter plot
of the k = 8 forest when matplotlib is available.
"""

import numpy as np

from opfsample import build_knn_graph, cluster_ift, compute_density
from opfsample.cluster import normalized_cut, sweep_normalized_cuts

rng = np.random.default_rng(7)
blob = lambda center, n: rng.normal(0, 0.6, size=(n, 2)) + center
X = np.vstack([blob([0, 0], 40), blob([6, 1], 35), blob([2, 7], 25)])

k_max = 12
print(f"{X.shape[0]} points, sweeping k = 1..{k_max}\n")
cuts, forests = sweep_normalized_cuts(X, k_max)
print(" k   normalized cut   clusters")
for k, (cut, forest) in enumerate(zip(cuts, forests), start=1):
    print(f"{k:2d}   {cut:14.6f}   {forest.num_clusters:8d}")
if len(forests) < k_max:
    print(f"(the sweep stopped at k = {len(forests)}, its first cut of 0: a cut is never")
    print(" negative and ties go to the smaller k, so no later k could be selected)")

k_star = int(np.argmin(cuts)) + 1  # the first minimum: ties go to the smaller k
forest = forests[k_star - 1]
print(f"\nselected k* = {k_star} with {forest.num_clusters} clusters")
print("(on cleanly separable data the cut is 0 already at small k -- every graph")
print(" component is perfectly separated -- and the smallest such k fragments the")
print(" most; larger k merges the fragments into the blobs)")

# the pieces are also available one step at a time; k = 8 recovers the blobs
k_blobs = 8
g = build_knn_graph(X, k_blobs)
dm = compute_density(g)
blobs = cluster_ift(g, dm)
print(f"\nat k = {k_blobs}: {blobs.num_clusters} clusters, roots {list(map(int, blobs.roots))}")
print(f"densities: min {dm.rho.min():.4f}, max {dm.rho.max():.4f}, sigma {dm.sigma:.4f}")
print(f"cut at k = {k_blobs}: {normalized_cut(g, blobs):.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 5))
    ax.scatter(X[:, 0], X[:, 1], c=blobs.cluster_id, cmap="tab10", s=25)
    ax.scatter(X[blobs.roots, 0], X[blobs.roots, 1], marker="*", s=220,
               edgecolor="black", facecolor="yellow", label="roots")
    ax.set_title(f"optimum-path forest clustering, k = {k_blobs}")
    ax.legend()
    fig.tight_layout()
    fig.savefig("clustering_walkthrough.png", dpi=120)
    print("saved clustering_walkthrough.png")
except ImportError:
    pass
