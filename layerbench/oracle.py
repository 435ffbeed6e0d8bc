"""Checks computed apart from the program.

``expected_gd`` recomputes every difference graph with DuckDB SQL from the
pandas frames the generators handed to Spark, following the definitions
of the paper and DESIGN.md (canonical undirected edges, ``D = A2 - A1``,
exact zeros dropped, the Discrete mappings). The solver checks use numpy
on that edge list:

* ``G_D`` as collected equals the recomputation;
* every DCSGA answer is a positive clique and its ``f = x'Dx`` matches;
* NewSEA's answer is a KKT point within the paper's ``1e-2/|S|``;
* mu-pruning is lossless (NewSEA's ``f`` equals the full-init best);
* SEACD never makes an expansion error;
* DCSAD's ``rho`` matches, is at least the heaviest edge weight, and its
  data-dependent ratio is at least 1;
* every DM top-5 support is a planted topic of ``repro.graphgen.titles``.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

import repro.graphgen.titles as titles

_CANON = """
    SELECT least(src, dst) AS src, greatest(src, dst) AS dst,
           sum(CAST(weight AS DOUBLE)) AS w
    FROM {t} WHERE src <> dst GROUP BY 1, 2
"""
_DIFF = """
    SELECT coalesce(b.src, a.src) AS src, coalesce(b.dst, a.dst) AS dst,
           coalesce(b.w, 0.0) - coalesce(a.w, 0.0) AS w
    FROM ({a}) a FULL OUTER JOIN ({b}) b ON a.src = b.src AND a.dst = b.dst
"""


def _sql(con, q: str) -> pd.DataFrame:
    return con.execute(q).df()


def _difference(con, a: str, b: str) -> pd.DataFrame:
    """Canonical edges of b - a, exact zeros dropped."""
    q = _DIFF.format(a=_CANON.format(t=a), b=_CANON.format(t=b))
    return _sql(con, f"SELECT * FROM ({q}) WHERE w <> 0.0")


def _base(con, family: str, frames: list, params: dict) -> pd.DataFrame:
    if family == "dm":
        con.register("titles", frames[0])
        n1, n2 = float(params["n1"]), float(params["n2"])
        pairs = """
            SELECT a.word AS src, b.word AS dst,
                   100.0 * count(*) / {n} AS weight
            FROM titles a JOIN titles b
              ON a.era = b.era AND a.doc = b.doc AND a.word < b.word
            WHERE a.era = {era} GROUP BY 1, 2
        """
        con.execute(f"CREATE TEMP TABLE g1 AS {pairs.format(n=n1, era=1)}")
        con.execute(f"CREATE TEMP TABLE g2 AS {pairs.format(n=n2, era=2)}")
        return _difference(con, "g1", "g2")
    if family == "wiki":
        con.register("g1", frames[0])
        con.register("g2", frames[1])
        return _difference(con, "g2", "g1")  # G1 - G2
    if family == "dblpc":
        con.register("ev", frames[0])
        con.execute("""CREATE TEMP TABLE g1 AS SELECT src, dst,
            CAST(count(*) AS DOUBLE) AS weight FROM ev WHERE t < 0.5
            GROUP BY 1, 2""")
        con.execute("""CREATE TEMP TABLE g2 AS SELECT src, dst,
            CAST(count(*) AS DOUBLE) AS weight FROM ev WHERE t >= 0.5
            GROUP BY 1, 2""")
        return _difference(con, "g1", "g2")
    if family == "actor":
        con.register("e", frames[0])
        return _sql(con, _CANON.format(t="e"))
    if family == "dblp":
        con.register("ev", frames[0])
        for era in (1, 2):
            con.execute(f"""CREATE TEMP TABLE g{era} AS SELECT src, dst,
                CAST(sum(papers) AS DOUBLE) AS weight FROM ev
                WHERE era = {era} GROUP BY 1, 2""")
        return _difference(con, "g1", "g2")
    raise ValueError(family)


def _derive(family: str, config: str, base: pd.DataFrame) -> pd.DataFrame:
    w = base["w"].to_numpy()
    if config in ("disappearing", "conflicting"):
        w = -w
    elif config == "discrete" and family == "actor":
        w = np.minimum(w, 10.0)
    elif config == "discrete":  # DBLP-C: the paper's Discrete setting
        w = np.select([w >= 5.0, w >= 2.0, w > 0.0, w > -4.0],
                      [2.0, 1.0, 0.0, -1.0], -2.0)
    out = base.assign(w=w)
    return out[out["w"] != 0.0].reset_index(drop=True)


def expected_gd(family: str, configs: list, frames: list,
                params: dict) -> dict:
    """{config: DataFrame(src, dst, w)} recomputed with DuckDB."""
    con = duckdb.connect()
    try:
        base = _base(con, family, frames, params)
    finally:
        con.close()
    return {cfg: _derive(family, cfg, base) for cfg in configs}


class EdgeOracle:
    """One config's expected G_D as numpy arrays keyed by external ids."""

    def __init__(self, edges: pd.DataFrame) -> None:
        self.edges = edges
        self.ids = np.unique(
            np.concatenate([edges["src"].to_numpy(), edges["dst"].to_numpy()])
        )
        self.pos = {v: i for i, v in enumerate(self.ids)}
        self.u = np.searchsorted(self.ids, edges["src"].to_numpy())
        self.v = np.searchsorted(self.ids, edges["dst"].to_numpy())
        self.w = edges["w"].to_numpy(dtype=np.float64)
        self.key = {(a, b): c for a, b, c in zip(self.u, self.v, self.w)}

    def weight(self, a, b) -> float:
        i, j = self.pos.get(a), self.pos.get(b)
        if i is None or j is None:
            return 0.0
        return self.key.get((min(i, j), max(i, j)), 0.0)

    def dense_x(self, x: dict) -> np.ndarray:
        out = np.zeros(len(self.ids))
        for v, val in x.items():
            out[self.pos[v]] = val
        return out

    def dx(self, x: dict, positive: bool) -> np.ndarray:
        """(D x)_i for every vertex, over G_D or G_D+."""
        xs = self.dense_x(x)
        w = np.where(self.w > 0.0, self.w, 0.0) if positive else self.w
        return (np.bincount(self.u, w * xs[self.v], len(self.ids))
                + np.bincount(self.v, w * xs[self.u], len(self.ids)))

    def affinity(self, x: dict) -> float:
        xs = self.dense_x(x)
        return float(2.0 * np.sum(self.w * xs[self.u] * xs[self.v]))

    def avg_degree(self, S) -> float:
        inside = np.zeros(len(self.ids), dtype=bool)
        inside[[self.pos[v] for v in S]] = True
        m = inside[self.u] & inside[self.v]
        return float(2.0 * self.w[m].sum() / len(S))

    def positive_clique(self, S) -> bool:
        S = list(S)
        return all(self.weight(S[a], S[b]) > 0.0
                   for a in range(len(S)) for b in range(a + 1, len(S)))


def compare_graph(g, oracle: EdgeOracle) -> list:
    """Differences between a collected LocalGraph and the recomputation."""
    rows = [
        (g.ids[i], g.ids[j], w)
        for i, nbrs in enumerate(g.adj) for j, w in nbrs.items() if i < j
    ]
    got = pd.DataFrame(rows, columns=["a", "b", "w"])
    got = pd.DataFrame({
        "src": np.where(got["a"] < got["b"], got["a"], got["b"]),
        "dst": np.where(got["a"] < got["b"], got["b"], got["a"]),
        "w": got["w"],
    })
    m = got.merge(oracle.edges, on=["src", "dst"], how="outer",
                  suffixes=("", "_exp"), indicator=True)
    errs = []
    missing = int((m["_merge"] != "both").sum())
    if missing:
        errs.append(f"{missing} edges differ in presence")
    both = m[m["_merge"] == "both"]
    bad = np.abs(both["w"] - both["w_exp"]) > 1e-9 * np.maximum(
        1.0, np.abs(both["w_exp"]))
    if bad.any():
        errs.append(f"{int(bad.sum())} edge weights differ")
    return errs


KKT_TOL = 1e-2  # the paper's convergence setting, divided by |S|
F_TOL = 1e-9


def _close(a: float, b: float, tol: float = F_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_clique_answer(o: EdgeOracle, r: dict, what: str) -> list:
    errs = []
    S = list(r["x"])
    if not S:
        return [f"{what}: empty answer"]
    if len(S) > 1 and not o.positive_clique(S):
        errs.append(f"{what}: support of size {len(S)} is not a positive "
                    "clique")
    if not _close(o.affinity(r["x"]), r["f"]):
        errs.append(f"{what}: f={r['f']!r} but x'Dx={o.affinity(r['x'])!r}")
    if not _close(sum(r["x"].values()), 1.0, 1e-6):
        errs.append(f"{what}: x is not on the simplex")
    return errs


def check_kkt(o: EdgeOracle, r: dict, what: str) -> list:
    S = list(r["x"])
    tol = KKT_TOL / len(S)
    p = o.dx(r["x"], positive=True)
    on = np.array([p[o.pos[v]] for v in S])
    errs = []
    if 2.0 * (on.max() - on.min()) > tol + F_TOL:
        errs.append(f"{what}: gradient spread on S exceeds {tol:.3g}")
    out = np.ones(len(p), dtype=bool)
    out[[o.pos[v] for v in S]] = False
    if out.any() and p[out].max() > r["f"] + tol:
        errs.append(f"{what}: a vertex outside S has (Dx)_i > f + {tol:.3g}")
    return errs


def planted_topics() -> set:
    out = {frozenset(t) for t in titles.PAIR_TOPICS}
    out |= {frozenset(t) for t in titles.TRIPLE_TOPICS}
    out.add(frozenset({"unsupervised", "feature", "selection"}))
    return out


def check_config(family: str, o: EdgeOracle, recs: dict) -> list:
    """All solver checks for one config's records {op: record}."""
    errs = []
    pos_w = o.w[o.w > 0.0]
    w_max = float(pos_w.max()) if len(pos_w) else 0.0
    for op, r in recs.items():
        if op in ("newsea", "full-seacd", "full-sea", "sea-top"):
            errs += check_clique_answer(o, r, op)
        if op in ("newsea", "full-seacd") and r["errors"]:
            errs.append(f"{op}: {r['errors']} SEACD expansion errors")
        if op == "newsea":
            errs += check_kkt(o, r, op)
        if op == "full-seacd":
            for x, f in r["top5"]:
                errs += check_clique_answer(o, dict(x=x, f=f), "top5")
            if family == "dm":
                planted = planted_topics()
                for x, _ in r["top5"]:
                    if frozenset(x) not in planted:
                        errs.append(f"top5 support {sorted(x)} not planted")
        if op == "dcsad":
            rho = o.avg_degree(r["S"])
            if not _close(rho, r["rho"]):
                errs.append(f"dcsad: rho={r['rho']!r} recomputed {rho!r}")
            if r["rho"] < w_max - F_TOL:
                errs.append(f"dcsad: rho {r['rho']} < heaviest edge {w_max}")
            if not r["ratio"] >= 1.0 - F_TOL:
                errs.append(f"dcsad: ratio {r['ratio']} < 1")
            for S, rho_s, pc in r["only"]:
                if not _close(o.avg_degree(S), rho_s):
                    errs.append("greedy_only: rho mismatch")
                if pc != o.positive_clique(S):
                    errs.append("greedy_only: positive-clique flag wrong")
    if "newsea" in recs and "full-seacd" in recs:
        a, b = recs["newsea"], recs["full-seacd"]
        if abs(a["f"] - b["f"]) > KKT_TOL / max(1, len(b["x"])):
            errs.append(f"mu-pruning lost the optimum: {a['f']} vs {b['f']}")
    return errs
