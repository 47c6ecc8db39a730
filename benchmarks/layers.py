"""Per-layer metrics from the spans of one traced operation.

A layer is a ``quasimap`` module.  ``<name>.s`` is the wall time covered by
the spans of one function (the union of their intervals, so recursion and
overlapping pool threads count once).  ``<module>.self_s`` splits the
operation's wall time among the spans that are open and have no open child:
while two pool threads each run a residue, each gets half of that interval.
Without threads this is each span's time minus the time its children cover,
and in every case the module self times add up to ``cli.main_s``.
"""

from __future__ import annotations

from collections import defaultdict

STEPS = range(6)

# Spans whose covered wall time is reported, under the name :func:`seconds_metric` gives.
TIMED = (
    "cli.main",
    "checks.check_w_coefficients", "checks.check_period_coefficients",
    "checks.check_volume_normalization", "checks.check_ideal_annihilation",
    "checks.check_degree_selection", "checks.check_order_independence",
    "checks.check_insertion_identities", "checks.check_toric", "checks.check_series",
    "checks.check_properties",
    "intersection.build", "intersection.compute_w", "intersection.integrate_class",
    "residues.iterated_residue", "residues.residue_at_point",
    "exact.MPoly.mul", "exact.FactoredRat.derivative", "exact.FactoredRat.reduce",
    "exact.FactoredRat.subst",
    "series.mirror_w", "series.j_from_w", "series.lagrange_oracle", "series.series_reversion",
    "series.series_exp", "series.pf_first_failure",
    "toric.eval_recession", "toric.orientation_enumeration", "toric.build_fan",
    "toric.relation_check", "toric.volume_form", "toric.det_Bk",
)

# Spans whose number is reported as ``<name>.calls``.
CALLS = (
    "intersection.build", "intersection.compute_w", "intersection.integrate_class",
    "residues.iterated_residue", "residues.residue_at_point",
    "exact.MPoly.mul", "exact.FactoredRat.derivative", "exact.FactoredRat.reduce",
    "exact.FactoredRat.subst", "series.mirror_w", "toric.eval_recession",
)

MODULES = ("exact", "residues", "intersection", "series", "toric", "checks", "cli")


def seconds_metric(span: str) -> str:
    """``cli.main_s``, ``checks.<check>_s`` for ``checks.check_<check>``, else ``<span>.s``."""
    if span == "cli.main" or span.startswith("checks."):
        return span.replace(".check_", ".") + "_s"
    return span + ".s"


# Metric name -> unit, for every metric :func:`layer_metrics` returns plus
# ``cli.import_s`` and ``trace.overhead_s``, which the caller measures.
UNITS = {
    "cli.import_s": "s",
    **{seconds_metric(span): "s" for span in TIMED},
    **{f"{span}.calls": "count" for span in CALLS},
    "intersection.build.num_terms": "count",
    "intersection.compute_w.reuse_ratio": "ratio",
    "residues.residue_at_point.nonzero_ratio": "ratio",
    "residues.num_terms_max": "count",
    "series.compositions.count": "count",
    "toric.orientation_enumeration.regions": "count",
    **{f"residues.step.{k}.{what}": unit for k in STEPS for what, unit in (("calls", "count"), ("s", "s"))},
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.overhead_s": "s",
}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Wall time of each module with its open leaf spans sharing each interval."""
    module = {}
    parent = {}
    events = []
    for sid, par, name, start, end, _thread, _info in spans:
        module[sid] = name.partition(".")[0]
        parent[sid] = par
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    out = dict.fromkeys(MODULES, 0.0)
    prev = None
    for t, opening, sid in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[module[leaf]] += share
        prev = t
        par = parent[sid]
        if opening:
            if par in open_children:
                open_children[par] += 1
                leaves.discard(par)
            open_children[sid] = 0
            leaves.add(sid)
        else:
            leaves.discard(sid)
            del open_children[sid]
            if par in open_children:
                open_children[par] -= 1
                if not open_children[par]:
                    leaves.add(par)
    return out


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Every metric of :data:`UNITS` that one traced operation determines."""
    by_name: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    out: dict[str, float] = {}
    for span in TIMED:
        out[seconds_metric(span)] = covered([(s[3], s[4]) for s in by_name[span]])
    for span in CALLS:
        out[f"{span}.calls"] = len(by_name[span])

    builds = by_name["intersection.build"]
    out["intersection.build.num_terms"] = max((s[6] for s in builds), default=0)
    built_under = {s[1] for s in builds}
    compute_w = by_name["intersection.compute_w"]
    reused = sum(1 for s in compute_w if s[0] not in built_under)
    out["intersection.compute_w.reuse_ratio"] = reused / len(compute_w) if compute_w else 0.0

    residues = by_name["residues.residue_at_point"]
    nonzero = sum(1 for s in residues if s[6] and s[6][2])
    out["residues.residue_at_point.nonzero_ratio"] = nonzero / len(residues) if residues else 0.0
    for k in STEPS:
        step = [s for s in residues if s[6] and s[6][0] == k]
        out[f"residues.step.{k}.calls"] = len(step)
        out[f"residues.step.{k}.s"] = covered([(s[3], s[4]) for s in step])
    out["residues.num_terms_max"] = max(
        [s[6][1] for s in residues if s[6]]
        + [s[6] for s in by_name["residues.iterated_residue"] if s[6] is not None],
        default=0,
    )

    out["series.compositions.count"] = counts.get("series.compositions", 0)
    out["toric.orientation_enumeration.regions"] = sum(
        s[6] for s in by_name["toric.orientation_enumeration"] if s[6] is not None
    )
    for module, seconds in self_times(spans).items():
        out[f"{module}.self_s"] = seconds
    return out
