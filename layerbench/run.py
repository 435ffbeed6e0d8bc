"""Layered benchmark of the density-contrast-subgraph pipeline.

Usage (from the root of a checkout)::

    python3 layerbench/run.py --workload dm-topics --seed 0 --seconds 15 --trace 0

Starts one local Spark session, then runs whole rounds of the workload
(generated inputs -> G_D -> collect -> solvers -> table rows) until
``--seconds`` have passed and at least three rounds are timed. Every
round's outputs are checked (``oracle``), and the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``wall_ref_s``, ``setup_s`` and
``driver_peak_rss_mb``; with ``--trace 1`` untraced and traced rounds
alternate, and the metrics are per-layer self times and counts (README).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = {0: 4, 1: 4}  # rounds per run: untraced / ABBA-traced
# wall_ref_s and setup_s are rescaled to a host on which the reference
# loop's 10th percentile takes this long (about its value on a quiet period
# of the machine the README's figures come from).
REF_CALIB_S = 0.005

LAYER_METRICS = {  # layer -> per-layer self-time metric
    "graphgen": "graphgen.gen_s",
    "graph": "graph.build_s",
    "local": "local.collect_s",
    "kbounds": "kbounds.bounds_s",
    "newsea": "newsea.newsea_s",
    "seacd": "seacd.seacd_s",
    "refine": "refine.refine_s",
    "sea": "sea.sea_s",
    "dcsad": "dcsad.dcsgreedy_s",
    "peel": "dcsad.peel_s",
    "tables": "tables.rows_s",
}
COUNT_METRICS = [
    "graph.gd_edges", "local.rows_collected", "kbounds.inits_pruned",
    "newsea.inits_run", "seacd.shrink_iters", "seacd.outer_iters",
    "refine.non_kkt", "sea.expansion_errors", "tables.cliques_found",
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be >= 0")
    return a


def spark_env(tmp: Path) -> None:
    """Local Spark confined to ``tmp``; read at JVM launch, so set first."""
    cores = max(1, min(4, os.cpu_count() or 1))
    os.environ["TMPDIR"] = str(tmp)
    # C1-only JIT: Spark reaches its steady speed within one round instead
    # of speeding up over ten or more (README: "Noise").
    java_opts = (f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData "
                 "-XX:TieredStopAtLevel=1")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote(f'spark.local.dir={tmp}')}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])


def start_spark():
    """The session settings of ``jobs/_common.session``; first job done."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("layerbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()
    return spark


def jvm_process():
    from pyspark import SparkContext

    return getattr(SparkContext._gateway, "proc", None)


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def stop_spark(spark, proc) -> None:
    """Stop the session and wait for the JVM, which exits on stdin EOF."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, spark, workload, seed: int, tracer) -> None:
        import workloads

        self.w = workloads
        self.spark = spark
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.first: dict | None = None  # round 0: frames, graphs, records
        self.fingerprint: dict | None = None
        self.unit_times: list = []  # per timed round: {unit: seconds}
        self.traced: list = []  # per timed round: traced?
        self.layer_times: list = []  # per traced round: {unit: {layer: s}}
        self.counts: list = []  # per round: {count metric: n}
        self.times: dict = {}  # the current round: {unit: seconds}
        self.calib: list = []  # seconds of each reference loop

    def _unit(self, traced: bool, name: str, fn, *args):
        t0 = time.perf_counter()
        calibrate()
        self.calib.append(time.perf_counter() - t0)
        if traced:
            token = self.tracer.begin("bench", name)
            try:
                return fn(*args)
            finally:
                self.times[name] = self.tracer.end(token)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.times[name] = time.perf_counter() - t0

    def _materialize(self, traced: bool):
        def run(df):
            if not traced:
                return df.localCheckpoint(eager=True)
            token = self.tracer.begin("graph", "localCheckpoint")
            try:
                return df.localCheckpoint(eager=True)
            finally:
                self.tracer.end(token)
        return run

    def round(self, index: int, traced: bool) -> None:
        w, wl = self.w, self.wl
        self.times = {}
        if traced:
            self.tracer.run_id += 1
            self.tracer.counts.clear()
            self.tracer.install()
        try:
            gen, edges, graphs, records = {}, {}, {}, {}
            for fam in wl.families:
                gen[fam] = self._unit(traced, f"gen:{fam}", w.generate,
                                      self.spark, fam, self.seed)
            for fam in wl.families:
                edges[fam] = self._unit(
                    traced, f"build:{fam}", w.build_plans, fam,
                    gen[fam]["dfs"], wl.configs(fam),
                    self._materialize(traced))
            for fam, cfg, ops in wl.plan:
                key = f"{fam}/{cfg}"
                g, gdp = self._unit(traced, f"collect:{key}", w.collect,
                                    edges[fam][cfg])
                graphs[key] = g
                state: dict = {}
                for op in ops:
                    self.attempted += 1
                    try:
                        out = self._unit(traced, f"{op}:{key}", w.run_op,
                                         op, g, gdp, state)
                    except Exception:  # one failed operation, run goes on
                        self.failed += 1
                        traceback.print_exc(file=sys.stderr)
                        continue
                    records[(key, op)] = w.record(op, g, out, state)
            self._unit(traced, "rows", w.render_rows, records)
        finally:
            if traced:
                self.tracer.uninstall()
        self._after_round(index, traced, gen, graphs, records)
        del gen, edges, graphs, records
        self._release()

    def _release(self) -> None:
        """Between rounds, untimed: drop this round's checkpoints from the
        JVM and collect Python garbage, so that neither heap grows with the
        number of rounds; freeze what the checks keep so that later
        collections do not walk it."""
        for rdd in self.spark.sparkContext._jsc.getPersistentRDDs().values():
            rdd.unpersist(True)
        gc.collect()
        gc.freeze()

    def _after_round(self, index, traced, gen, graphs, records) -> None:
        fp = {k: graph_fingerprint(g) for k, g in graphs.items()}
        if index == 0:
            self.first = dict(
                frames={fam: gen[fam]["frames"] for fam in gen},
                graphs=graphs, records=records)
            self.fingerprint = fp
        else:
            if fp != self.fingerprint:
                self.errors.append(f"round {index}: G_D differs from round 0")
            self.errors += compare_records(self.first["records"], records,
                                           f"round {index}")
        self.unit_times.append(dict(self.times))
        self.traced.append(traced)
        counts = record_counts(graphs, records)
        if traced:
            self.layer_times.append(
                self.tracer.self_times(self.tracer.run_id))
            counts.update({k: v for k, v in self.tracer.counts.items()
                           if k in COUNT_METRICS})
            if self.tracer.counts.get("seacd.expansion_errors"):
                self.errors.append("SEACD made expansion errors")
        same_kind = [c for c, t in zip(self.counts, self.traced)
                     if t == traced]
        if same_kind and counts != same_kind[0]:
            self.errors.append(f"round {index}: counts {counts} differ from "
                               f"{same_kind[0]}")
        self.counts.append(counts)


def calibrate() -> float:
    """The reference loop: fixed dict and float work, run before every unit
    so that its timings track the host's speed over the run."""
    p: dict = {}
    for i in range(40000):
        j = i % 97
        p[j] = p.get(j, 0.0) + 0.5 * i
    return p[0]


def graph_fingerprint(g) -> tuple:
    edges = sorted(
        (g.ids[i], g.ids[j], w)
        for i, nbrs in enumerate(g.adj) for j, w in nbrs.items() if i < j
    )
    return g.n, hash(tuple(edges))


def record_counts(graphs: dict, records: dict) -> dict:
    """Count metrics read from the returned records of one round."""
    out = {
        "graph.gd_edges": sum(g.m for g in graphs.values()),
        "newsea.inits_run": 0,
        "kbounds.inits_pruned": 0,
        "tables.cliques_found": 0,
    }
    for (_, op), r in records.items():
        if op == "newsea":
            out["newsea.inits_run"] += r["inits"]
            out["kbounds.inits_pruned"] += r["n_mu"] - r["inits"]
        elif op == "full-seacd":
            out["tables.cliques_found"] += r["n_cliques"]
    return out


def compare_records(ref: dict, got: dict, where: str) -> list:
    """Same seed, same inputs: supports and counts must repeat exactly."""
    errs = []
    if ref.keys() != got.keys():
        return [f"{where}: different operations completed"]
    for key, a in ref.items():
        b = got[key]
        for field, va in a.items():
            vb = b[field]
            if field in ("x", "S"):
                same = set(va) == set(vb)
            elif field == "top5":
                same = [set(x) for x, _ in va] == [set(x) for x, _ in vb]
            elif field == "only":
                same = [set(s) for s, _, _ in va] == [set(s) for s, _, _ in vb]
            elif isinstance(va, float):
                same = abs(va - vb) <= 1e-9 * max(1.0, abs(va))
            else:
                same = va == vb
            if not same:
                errs.append(f"{where}: {key} {field} differs from round 0")
    return errs


def check_first_round(runner) -> list:
    """Round 0 against the independent recomputation."""
    import oracle
    import workloads

    errs = []
    first = runner.first
    for fam in runner.wl.families:
        cfgs = runner.wl.configs(fam)
        exp = oracle.expected_gd(fam, cfgs, first["frames"][fam],
                                 workloads.PARAMS[fam])
        for cfg in cfgs:
            key = f"{fam}/{cfg}"
            o = oracle.EdgeOracle(exp[cfg])
            recs = {op: r for (k, op), r in first["records"].items()
                    if k == key}
            try:
                found = oracle.compare_graph(first["graphs"][key], o)
                found += oracle.check_config(fam, o, recs)
            except (KeyError, ValueError) as e:
                found = [f"check raised {e!r}"]
            errs += [f"{key}: {e}" for e in found]
    return errs


def reference_speed(calib: list) -> float:
    """10th percentile of the reference loop's times in this run."""
    return statistics.quantiles(calib, n=10)[0]


def min_sum(rounds: list) -> float:
    """Sum over units of each unit's fastest time across rounds."""
    return sum(min(r[u] for r in rounds) for u in rounds[0])


def layer_breakdown(runner) -> dict:
    """Per-layer self time: for each unit, the traced round in which it was
    fastest; the layers of those rounds add up to the traced wall time."""
    rounds = [t for t, tr in zip(runner.unit_times, runner.traced) if tr]
    totals = {layer: 0.0 for layer in [*LAYER_METRICS, "bench", "trace"]}
    for unit in rounds[0]:
        pick = min(range(len(rounds)), key=lambda k: rounds[k][unit])
        for layer, s in runner.layer_times[pick][unit].items():
            totals[layer] += s
    return totals


def write_trace(runner, args) -> Path:
    """Per-round unit times, the count records and (when traced) every span,
    as JSON lines under ``layerbench/out/``."""
    out = HERE / "out" / (f"{'trace' if args.trace else 'units'}-"
                          f"{args.workload}-seed{args.seed}.jsonl")
    out.parent.mkdir(exist_ok=True)
    fields = ("round", "span", "parent", "layer", "name", "start", "end")
    with out.open("w") as fh:
        for k, (times, tr) in enumerate(zip(runner.unit_times,
                                            runner.traced)):
            fh.write(json.dumps(dict(round=k, traced=tr, units=times)) + "\n")
        fh.write(json.dumps(dict(calib=runner.calib)) + "\n")
        for counts in runner.counts:
            fh.write(json.dumps(dict(counts=counts)) + "\n")
        for s in runner.tracer.spans:
            fh.write(json.dumps(dict(zip(fields, s))) + "\n")
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"layerbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tmp = HERE / ".tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp: Path) -> int:
    t0 = time.perf_counter()
    spark_env(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports pyspark and the program
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"layerbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spark = start_spark()
    setup_s = time.perf_counter() - t0
    proc = jvm_process()
    try:
        runner = Runner(spark, workloads.WORKLOADS[args.workload], args.seed,
                        Tracer())
        # Every round is timed and each unit keeps its fastest round, which
        # drops round 0's warm-up and the host's transient slowdowns
        # (README: "Noise"). Traced runs order rounds ABBA (U T T U ...).
        start = time.perf_counter()
        k = 0
        while (k < MIN_ROUNDS[args.trace]
               or time.perf_counter() - start < args.seconds):
            runner.round(k, traced=bool(args.trace) and k % 4 in (1, 2))
            k += 1
        driver_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        jvm_rss = peak_rss_mb(proc.pid) if proc is not None else float("nan")
        t_rounds = time.perf_counter() - start
    finally:
        stop_spark(spark, proc)
    t_stop = time.perf_counter()
    errors = runner.errors + check_first_round(runner)
    print(f"layerbench: setup {setup_s:.1f} s, {k} rounds "
          f"{t_rounds:.1f} s, stop {t_stop - start - t_rounds:.1f} s, "
          f"checks {time.perf_counter() - t_stop:.1f} s", file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    untraced = [t for t, tr in zip(runner.unit_times, runner.traced) if not tr]
    # Both time metrics are rescaled to the reference host speed.
    scale = REF_CALIB_S / reference_speed(runner.calib)
    if args.trace == 0:
        metrics = {
            "wall_ref_s": metric(min_sum(untraced) * scale, "s"),
            "setup_s": metric(setup_s * scale, "s"),
            "driver_peak_rss_mb": metric(driver_rss, "MB"),
        }
    else:
        traced = [t for t, tr in zip(runner.unit_times, runner.traced) if tr]
        layers = layer_breakdown(runner)
        metrics = {name: metric(layers[layer], "s")
                   for layer, name in LAYER_METRICS.items()}
        counts = runner.counts[runner.traced.index(True)]
        metrics.update({name: metric(counts.get(name, 0), "count")
                        for name in COUNT_METRICS})
        metrics["graph.jvm_peak_rss_mb"] = metric(jvm_rss, "MB")
        wall_t, wall_u = min_sum(traced), min_sum(untraced)
        metrics["trace.traced_wall_s"] = metric(wall_t, "s")
        metrics["trace.untraced_wall_s"] = metric(wall_u, "s")
        metrics["trace.overhead_s"] = metric(wall_t - wall_u, "s")
        metrics["trace.unattributed_s"] = metric(
            layers["bench"] + layers["trace"], "s")
        metrics["trace.calib_p10_s"] = metric(REF_CALIB_S / scale, "s")
        metrics["trace.setup_raw_s"] = metric(setup_s, "s")
    write_trace(runner, args)
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
