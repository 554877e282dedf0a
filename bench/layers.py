"""Where the traced compare is wrapped, and how spans become per-layer metrics.

Each wrapper sits where its caller looks the function up: the harness calls
``harness.sweep_normalized_cuts``, the sweep calls ``cluster.cluster_ift``,
the classifier calls ``classifier.pairwise_distances``, and so on. Hooks keep
references to arguments and results for the output checks; the checks copy
nothing while the compare runs.
"""

from __future__ import annotations

from spans import Tracer

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "cluster.graph_s": ("cluster.sweep",),
    "cluster.density_s": ("cluster.density",),
    "cluster.ift_s": ("cluster.ift",),
    "cluster.ncut_s": ("cluster.ncut",),
    "cluster.distance_s": ("cluster.distance",),
    "classifier.fit_s": ("classifier.fit",),
    "classifier.distance_s": ("classifier.distance",),
    "classifier.predict_s": ("classifier.predict",),
    "baselines.s": ("baselines.smote", "baselines.borderline_smote", "baselines.adasyn",
                    "baselines.fallback"),
    "baselines.distance_s": ("baselines.distance",),
    "oversample.s": ("oversample.fit", "oversample.allocate", "oversample.synthesize"),
    "data.load_s": ("data.load",),
    "data.split_s": ("data.split",),
    "data.prep_s": ("data.prep",),
    "metrics.s": ("metrics",),
    "harness.self_s": ("harness.trial",),
    "harness.report_s": ("harness.report",),
}
# per-layer metric -> span name whose whole duration it sums
TOTAL_TIME = {"cluster.sweep_s": "cluster.sweep"}
COUNTS = (
    "cluster.graphs", "cluster.arcs",
    "classifier.fits", "classifier.fit_rows", "classifier.distance_cells", "classifier.probes",
    "baselines.neighbor_rows", "baselines.neighbor_rows_read", "baselines.rows",
    "baselines.fallbacks",
    "oversample.rows",
    "data.split_calls",
    "harness.trials",
)
# every cluster_ift call whose index is a multiple of this is kept for checking
IFT_SAMPLE_EVERY = 7


def instrument(t: Tracer) -> None:
    """Wrap every layer boundary of ``opfsample`` on ``t``; undo with ``t.restore()``."""
    from opfsample import baselines, classifier, cluster, data, harness

    counts, keep = t.counts, t.captures
    sweep_input = []

    def enter_trial(args, kwargs):
        t.trial = f"{args[0].method}/{kwargs.get('trial', 0)}"

    def leave_trial(args, kwargs, report):
        counts["harness.trials"] += 1
        t.trial = None

    def split_done(args, kwargs, parts):
        counts["data.split_calls"] += 1
        keep["split"].append((t.trial, parts[0].class_counts))

    def sweep_in(args, kwargs):
        sweep_input[:] = [args[0]]

    def sweep_done(args, kwargs, out):
        cuts, forests = out
        keep["sweep"].append((t.trial, cuts, [f.num_clusters for f in forests]))

    def graph_built(args, kwargs, g):
        counts["cluster.graphs"] += 1
        counts["cluster.arcs"] += sum(map(len, g.neighbors))

    def ift_done(args, kwargs, forest):
        if counts["ift_calls"] % IFT_SAMPLE_EVERY == 0:
            keep["ift"].append((t.trial, sweep_input[0], args[0], args[1], forest))
        counts["ift_calls"] += 1

    def fit_done(args, kwargs, model):
        counts["classifier.fits"] += 1
        counts["classifier.fit_rows"] += model.train_features_.shape[0]
        keep["fit"].append((t.trial, model))

    def distance_cells(args, kwargs, dist):
        counts["classifier.distance_cells"] += dist.size

    def predicted(args, kwargs, labels):
        counts["classifier.probes"] += labels.size
        keep["predict"].append((args[0], args[1], labels))

    def sampled(kind):
        def hook(args, kwargs, rows):
            counts["baselines.rows"] += rows.shape[0]
            keep["sampler"].append((t.trial, kind, args, kwargs, rows))
        return hook

    def fallback(args, kwargs, rows):
        counts["baselines.fallbacks"] += 1

    def table_built(args, kwargs, table):
        counts["baselines.neighbor_rows"] += table.shape[0]
        counts["baselines.neighbor_rows_read"] += table.shape[0]

    def all_class_read(args, kwargs, out):
        # the all-class table sorted every row, but only minority rows are read
        counts["baselines.neighbor_rows_read"] -= len(args[0]) - out[0].size

    def allocated(args, kwargs, plan):
        keep["allocate"].append((t.trial, [c.count for c in args[0]], args[1], plan))

    def synthesized(args, kwargs, rows):
        counts["oversample.rows"] += rows.shape[0]

    t.wrap(harness, "run_experiment", "harness.experiment")
    t.wrap(harness, "run_trial", "harness.trial", before=enter_trial, after=leave_trial)
    t.wrap(harness, "render_comparison_text", "harness.report")
    t.wrap(harness, "write_comparison_files", "harness.report")
    t.wrap(harness, "load_csv", "data.load")
    t.wrap(harness, "split", "data.split", after=split_done)
    t.wrap(harness, "impute_mean", "data.prep")
    t.wrap(harness, "standardize", "data.prep")
    t.wrap(data.PreprocessStats, "apply", "data.prep")
    t.wrap(harness, "score", "metrics")
    t.wrap(harness, "wilcoxon_signed_rank", "metrics")
    t.wrap(harness, "sweep_normalized_cuts", "cluster.sweep", before=sweep_in, after=sweep_done)
    t.wrap(cluster, "pairwise_distances", "cluster.distance")
    t.wrap(cluster, "_graph_from_prefix", None, after=graph_built)
    t.wrap(cluster, "compute_density", "cluster.density")
    t.wrap(cluster, "cluster_ift", "cluster.ift", after=ift_done)
    t.wrap(cluster, "normalized_cut", "cluster.ncut")
    t.wrap(classifier.OpfClassifier, "fit", "classifier.fit", after=fit_done)
    t.wrap(classifier, "pairwise_distances", "classifier.distance", after=distance_cells)
    t.wrap(classifier.OpfClassifier, "predict_batch", "classifier.predict", after=predicted)
    t.wrap(harness, "smote", "baselines.smote", after=sampled("smote"))
    t.wrap(harness, "borderline_smote", "baselines.borderline_smote",
           after=sampled("borderline_smote"))
    t.wrap(harness, "adasyn", "baselines.adasyn", after=sampled("adasyn"))
    t.wrap(baselines, "smote", "baselines.fallback", after=fallback)
    t.wrap(baselines, "pairwise_distances", "baselines.distance")
    t.wrap(baselines, "_neighbor_table", None, after=table_built)
    t.wrap(baselines, "_majority_neighbor_counts", None, after=all_class_read)
    t.wrap(harness, "gaussians_from_forest", "oversample.fit")
    t.wrap(harness, "allocate", "oversample.allocate", after=allocated)
    t.wrap(harness, "synthesize_plan", "oversample.synthesize", after=synthesized)


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio" if metric.endswith("_share") else "count"


def per_layer(t: Tracer) -> dict[str, float]:
    """Per-layer seconds (self time unless listed in TOTAL_TIME), counts and one share."""
    total, own = t.self_times()
    out = {m: float(total.get(name, 0.0)) for m, name in TOTAL_TIME.items()}
    for metric, names in SELF_TIME.items():
        out[metric] = float(sum(own.get(n, 0.0) for n in names))
    for name in COUNTS:
        out[name] = int(t.counts[name])
    # useful share of the neighbor sorting: rows whose ordering a caller reads
    sorted_rows = out["baselines.neighbor_rows"]
    out["baselines.neighbor_read_share"] = (
        out["baselines.neighbor_rows_read"] / sorted_rows if sorted_rows else 1.0
    )
    return out
