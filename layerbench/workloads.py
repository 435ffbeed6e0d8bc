"""The three workloads: generated inputs -> G_D -> driver solvers -> rows.

One *round* runs a workload's whole pipeline once, split into timed
units:

* ``gen:<family>``    the ``repro.graphgen`` generator of one family;
* ``build:<family>``  ``repro.graph.difference`` plans for every config of
  the family, materialised with ``localCheckpoint(eager=True)`` exactly as
  ``repro.datasets.get_dataset`` does;
* ``collect:<cfg>``   ``repro.graph.local.collect_graph`` and ``G_D+``;
* ``<op>:<cfg>``      one (config, algorithm) solve, the benchmark's
  *operation*;
* ``rows``            the checked results rendered as a table with
  ``repro.tables.common.fmt_table``.

Program functions are always looked up as module attributes at call time,
so the tracer's wrappers see every call. Each unit returns a small record
(external vertex ids, objective values and counts) that ``oracle`` checks
after the timed part of the run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import repro.core.dcsad as dcsad
import repro.core.kbounds as kbounds
import repro.core.newsea as newsea
import repro.core.refine as refine_mod
import repro.core.sea as sea_mod
import repro.graph.difference as diff
import repro.graph.local as local
import repro.graphgen.bigco as bigco
import repro.graphgen.coauthor as coauthor
import repro.graphgen.signed as signed
import repro.graphgen.titles as titles
import repro.tables.common as tables_common
import repro.tables.table05_06 as table05_06

# The generators' own default seeds; ``--seed 0`` keeps them, so seed 0
# regenerates the graphs of ``repro.datasets`` at the same parameters.
DEFAULT_SEEDS = dict(dblp=7, dm=11, wiki=13, dblpc=19, actor=23)
SEED_STRIDE = 1000

# Generator parameters per family. They are smaller than the
# ``repro.datasets`` "bench" scale so that a round takes a few seconds and
# every run holds several timed rounds (README: "Input sizes").
PARAMS = {
    "dm": dict(n1=1500, n2=2000, n_filler=150),
    "wiki": dict(n=900, bg_edges=2500, n_big_cons=120, n_big_conf=60),
    "dblpc": dict(n=900, bg_pairs=2000),
    "actor": dict(n=800, bg_pairs=6000),
    "dblp": dict(n=500, bg_pairs=1200),
}


@dataclass
class Workload:
    name: str
    # (family, config, ops); configs of one family share one generated input.
    plan: list
    families: list = field(init=False)

    def __post_init__(self) -> None:
        self.families = list(dict.fromkeys(fam for fam, _, _ in self.plan))

    def configs(self, family: str) -> list:
        return [cfg for fam, cfg, _ in self.plan if fam == family]


_SMART = ["newsea", "dcsad", "sea-top"]
WORKLOADS = {
    "dm-topics": Workload("dm-topics", [
        ("dm", "emerging", _SMART + ["full-seacd"]),
        ("dm", "disappearing", _SMART + ["full-seacd"]),
    ]),
    "sparse-dcs": Workload("sparse-dcs", [
        (fam, cfg, _SMART)
        for fam, cfgs in (
            ("wiki", ["consistent", "conflicting"]),
            ("dblpc", ["weighted", "discrete"]),
            ("actor", ["weighted", "discrete"]),
        )
        for cfg in cfgs
    ]),
    "sparse-full-init": Workload("sparse-full-init", [
        ("wiki", "consistent", _SMART + ["full-seacd"]),
        ("actor", "weighted", _SMART + ["full-seacd"]),
        ("dblp", "weighted-emerging", _SMART + ["full-sea"]),
        ("dblpc", "weighted", _SMART + ["full-sea"]),
    ]),
}


class CaptureSpark:
    """Passes calls to a SparkSession and keeps every pandas frame handed to
    ``createDataFrame``: the generated inputs the oracle recomputes from."""

    def __init__(self, spark) -> None:
        self._spark = spark
        self.frames: list = []

    def createDataFrame(self, data, *args, **kwargs):  # noqa: N802
        self.frames.append(data)
        return self._spark.createDataFrame(data, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._spark, name)


def family_seed(family: str, seed: int) -> int:
    return DEFAULT_SEEDS[family] + SEED_STRIDE * seed


def generate(spark, family: str, seed: int) -> dict:
    """Run one family's generator; returns its Spark inputs and raw frames."""
    cap = CaptureSpark(spark)
    p = PARAMS[family]
    s = family_seed(family, seed)
    if family == "dm":
        g1, g2 = titles.keyword_graphs(cap, p["n1"], p["n2"], p["n_filler"],
                                       seed=s)
        dfs = dict(g1=g1, g2=g2)
    elif family == "wiki":
        g1, g2, _ = signed.interaction_graphs(
            cap, n=p["n"], bg_edges=p["bg_edges"],
            n_big_cons=p["n_big_cons"], n_big_conf=p["n_big_conf"], seed=s)
        dfs = dict(g1=g1, g2=g2)
    elif family == "dblpc":
        g1, g2 = bigco.dblpc_graphs(cap, p["n"], p["bg_pairs"], seed=s)
        dfs = dict(g1=g1, g2=g2)
    elif family == "actor":
        dfs = dict(edges=bigco.actor_graph(cap, p["n"], p["bg_pairs"], seed=s))
    elif family == "dblp":
        ev = coauthor.events(p["n"], p["bg_pairs"], seed=s)
        g1, g2 = coauthor.era_graphs(cap, ev)
        dfs = dict(g1=g1, g2=g2)
    else:
        raise ValueError(family)
    return dict(dfs=dfs, frames=cap.frames)


def build_plans(family: str, dfs: dict, configs: list, materialize) -> dict:
    """G_D of every requested config; ``materialize`` runs the Spark job.

    The first config of a family is its base difference graph; the other
    is derived from the materialised base (flip, discretize or cap).
    """
    if family == "actor":
        base = materialize(diff.canonicalize(dfs["edges"]))
    elif family == "wiki":
        base = materialize(diff.difference(dfs["g2"], dfs["g1"]))  # G1 - G2
    else:
        base = materialize(diff.difference(dfs["g1"], dfs["g2"]))  # G2 - G1
    derive = {
        "disappearing": diff.flip,
        "conflicting": diff.flip,
        "discrete": (lambda e: diff.cap_weights(e, 10.0))
        if family == "actor" else diff.discretize,
    }
    return {
        cfg: base if cfg not in derive else materialize(derive[cfg](base))
        for cfg in configs
    }


def collect(edges) -> tuple:
    g = local.collect_graph(edges)
    return g, g.positive_part()


def _ext(g, x: dict) -> dict:
    return {g.ids[i]: v for i, v in x.items()}


def run_op(op: str, g, gdp, state: dict):
    """Run one operation; returns the raw program result.

    ``state`` carries values between the operations of one config (the
    top-mu vertex found by the bounds of the ``newsea`` operation).
    """
    if op == "newsea":
        mu = kbounds.smart_init_bounds_local(gdp)
        res = newsea.newsea(gdp, mu)
        return mu, res
    if op == "full-seacd":
        res = newsea.seacd_refine_full(gdp)
        return res, table05_06.dedup_cliques(res.cliques)[:5]
    if op == "full-sea":
        return newsea.sea_refine_full(gdp)
    if op == "dcsad":
        return (dcsad.dcs_greedy(g), dcsad.greedy_only(g, positive=False),
                dcsad.greedy_only(g, positive=True))
    if op == "sea-top":
        x, p, stats = sea_mod.sea(gdp, state["top"])
        refine_mod.refine(gdp, x, p)
        return x, p, stats
    raise ValueError(op)


def record(op: str, g, out, state: dict) -> dict:
    """Small, id-based summary of an operation's result for the checks."""
    if op == "newsea":
        mu, res = out
        state["top"] = max(mu, key=mu.__getitem__) if mu else 0
        return dict(x=_ext(g, res.x), f=res.f, inits=res.inits,
                    errors=res.expansion_errors, n_mu=len(mu))
    if op == "full-seacd":
        res, top = out
        return dict(x=_ext(g, res.x), f=res.f, inits=res.inits,
                    errors=res.expansion_errors, n_cliques=len(res.cliques),
                    top5=[(_ext(g, x), f) for _, f, x in top])
    if op == "full-sea":
        return dict(x=_ext(g, out.x), f=out.f, inits=out.inits,
                    errors=out.expansion_errors)
    if op == "dcsad":
        r, only_gd, only_gdp = out
        return dict(S=g.to_ids(r.S), rho=r.rho, ratio=r.ratio,
                    only=[(g.to_ids(s), rho, pc)
                          for s, rho, pc in (only_gd, only_gdp)])
    if op == "sea-top":
        x, p, stats = out
        f = sum(v * p.get(u, 0.0) for u, v in x.items())
        return dict(x=_ext(g, x), f=f, errors=stats.expansion_errors)
    raise ValueError(op)


ROW_COLUMNS = ["config", "op", "size", "value", "inits"]


def render_rows(records: dict) -> str:
    rows = [
        dict(config=cfg, op=op, size=len(r.get("x") or r.get("S")),
             value=r.get("f", r.get("rho")), inits=r.get("inits", ""))
        for (cfg, op), r in records.items()
    ]
    return tables_common.fmt_table(rows, ROW_COLUMNS)
