#!/usr/bin/env python3
"""PCR benchmark: loader and encoder throughput, bytes per image, and a
traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload read_scan1 --seed 0 --seconds 20 --trace 0

The load is one closed-loop client: one driver process runs one epoch
(``collect_features``) or one encode (``build_pcr_dataset``) at a time in
Spark ``local[N]``, N = min(4, cores). Every run builds its inputs afresh
under ``.perfbench_work/`` and removes them at exit; nothing under
``.data/`` is used.

With ``--trace 0`` the run times the workload for ``--seconds`` and prints
the end-to-end metrics. With ``--trace 1`` it runs each Spark call once,
replays the same per-record work serially with a span around each public
call into a layer, and prints the per-layer metrics; spans are written to
``.perfbench_work/trace/``. Either way the outputs are checked afterwards
(see ``check.py``), outside the timed region, and the checker's self-test
runs. The last line of stdout is one JSON object; the exit code is 0
when every check passed, 1 when one failed, 2 when there is no program
to benchmark.
"""
import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
N_CORES = min(4, os.cpu_count() or 1)
DEFAULT_SEED = 0  # seed 0 keeps the repository's own images

# Why each workload (see README.md): read_scan10 is entropy-decode bound,
# read_scan1 reads the same records' shortest prefix and is Spark/Arrow
# overhead bound, encode is the write side on different inputs.
# BENCHMARK.json lists read_scan1 and encode only: a read_scan10 run
# takes about 50 s on 4 vCPUs, too long for the repeated runs a
# steadiness check makes of every listed workload.
WORKLOADS = {  # name -> (dataset, sf, scan group; None = encode)
    "read_scan10": ("ham_lite", 1.0, 10),
    "read_scan1": ("ham_lite", 1.0, 1),
    "encode": ("imagenet_lite", 1.0, None),
}

# Span names start with their layer's name; each layer reports its errors.
LAYERS = ("dataset", "pcr", "jpeg", "features", "synth", "tfrecord")

# Untimed warm-up before the first timed call. Scan-1 epochs kept getting
# faster for about 15 s after a warm-up of two epochs (from about 120 to
# 170 img/s on 4 vCPUs) as the JVM compiled the collect query's paths.
WARM_S = 8.0


def seeded_spec(name: str, seed: int):
    """The dataset's spec with its images re-drawn for ``seed``.

    Each image is seeded from ``crc32(f"{spec.name}:{idx}")``, so a seeded
    name changes the generated pixels and labels and nothing else.
    """
    from repro import synth_images

    base = synth_images.SPECS[name]
    if seed == DEFAULT_SEED:
        return base
    return registered(dataclasses.replace(base, name=f"{name}-seed{seed}"))


def registered(spec):
    """``spec``, made known to ``build_pcr_dataset`` (which takes a name)."""
    from repro import synth_images

    synth_images.SPECS[spec.name] = spec
    return spec


def start_spark(rundir: str):
    """A local[N] session configured as the repository's jobs configure it,
    with every scratch file kept inside ``rundir``."""
    tmp = os.path.join(rundir, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # No JVM perf-data files under /tmp, from spark-submit's launcher either.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(shlex.quote(a) for a in [
        "--master", f"local[{N_CORES}]",
        "--driver-memory", "1g",
        "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.local.dir={tmp}",
        "--conf", f"spark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
        "pyspark-shell",
    ])
    from repro.core.harness import job_spark

    spark = job_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def become_subreaper() -> None:
    """Adopt every descendant that loses its parent (Spark's Python workers
    when the JVM exits), so ``reap_descendants`` can wait for it too."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, kids = os.getpid(), []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:  # exited meanwhile
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(d))
    return kids


def reap_descendants(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The multiprocessing resource tracker ignores SIGTERM and would outlive
    the run by a moment, so it is stopped through its own pipe first. Any
    other child (or adopted orphan) gets SIGTERM, and SIGKILL after
    ``grace_s`` seconds.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:  # no children left
            return
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def warm_up(fn) -> None:
    """Call ``fn`` at least twice, and until ``WARM_S`` seconds have passed."""
    t, calls = time.perf_counter(), 0
    while calls < 2 or time.perf_counter() - t < WARM_S:
        fn()
        calls += 1


def timed_job(spark, group: str, fn):
    """(result, wall seconds, Spark tasks completed) of ``fn()``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    t = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t
    tracker = sc.statusTracker()
    tasks = 0
    for jid in tracker.getJobIdsForGroup(group):
        for sid in tracker.getJobInfo(jid).stageIds:
            st = tracker.getStageInfo(sid)
            tasks += st.numCompletedTasks if st else 0
    return out, wall, tasks


def peak_rss_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def frame_rows(pdf):
    """A collected feature frame as [((record, pos), label, features)]."""
    import numpy as np

    return [((r, int(p)), int(lab), np.asarray(f, dtype=np.float64))
            for r, p, lab, f in zip(pdf["record"], pdf["pos"], pdf["label"],
                                    pdf["features"])]


def frame_bytes(pdf) -> int:
    """Bytes the collected frame holds in the driver, feature arrays included."""
    import numpy as np

    rest = pdf.drop(columns="features").memory_usage(deep=True).sum()
    return int(rest) + sum(np.asarray(f).nbytes for f in pdf["features"])


def metadata_rows(out_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_table(
        os.path.join(out_dir, "metadata.parquet"), columns=["pos"]
    ).num_rows


def record_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for f in sorted(os.listdir(out_dir)):
        if f.endswith((".pcr", ".tfrec")):
            with open(os.path.join(out_dir, f), "rb") as fh:
                out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_records(out_dir: str, g: int) -> list[dict]:
    """``check.check_record`` on every record of ``out_dir``, in parallel."""
    import check
    from repro.core.dataset import record_paths

    recs = record_paths(out_dir)
    twins = [p[: -len(".pcr")] + ".tfrec" for p in recs]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(N_CORES, len(recs)),
                             mp_context=ctx) as pool:
        return list(pool.map(check.check_record, recs, twins, [g] * len(recs)))


def replay_of(checks: list[dict]):
    """(features and label per (record, pos), keys failing the coefficient check)."""
    replay, bad = {}, set()
    for r in checks:
        for pos, (lab, f) in enumerate(zip(r["labels"], r["features"])):
            replay[(r["record"], pos)] = (lab, f)
        for pos in r["failed"]:
            bad.add((r["record"], pos))
            replay.setdefault((r["record"], pos), (None, None))
    return replay, bad


def read_counts(checks: list[dict], n_img: int) -> dict:
    """Bytes read measured around ``read_pcr``, beside the modelled prefix."""
    measured = sum(r["bytes_read"] for r in checks)
    modelled = sum(r["prefix_bytes"] for r in checks)
    return {
        "bytes_read_per_img": measured / n_img,
        "prefix_bytes_per_img_modelled": modelled / n_img,
        "read_amp": measured / modelled if modelled else 0.0,
        "syscalls_per_record": sum(r["syscalls"] for r in checks) / len(checks),
    }


def stored_bytes_per_img(out_dir: str, n_img: int) -> float:
    from repro.core.dataset import record_paths

    return sum(os.path.getsize(p) for p in record_paths(out_dir)) / n_img


def check_lines(checks: list[dict]) -> list[str]:
    return [f"check: {os.path.basename(r['record'])}: {len(r['failed'])} of "
            f"{r['n']} images failed ({r['error']})"
            for r in checks if r["failed"] or r["error"]]


def throughput_line(lines: list[str], what: str, n_img: int,
                    seconds: list[float]) -> float:
    """Images per second over the whole timed region (total images over
    total seconds), which steadies a rate whose epochs vary; the
    per-epoch rates are printed beside it."""
    rate = n_img * len(seconds) / sum(seconds)
    lines.append(
        f"img_per_s: {rate:.2f} over {len(seconds)} {what} of {n_img} images "
        f"in {sum(seconds):.2f} s; per {what[:-1]}: "
        + ", ".join(f"{n_img / s:.1f}" for s in seconds)
    )
    return rate


def encode_failures(checks: list[dict], digests: list[dict]) -> int:
    """Images failing the check, summed over encode epochs.

    Only the last epoch's records are decoded; an earlier epoch's record
    shares their outcome when its bytes are identical, and fails whole
    otherwise (the encoder is deterministic for a given seed).
    """
    failed = 0
    for dig in digests:
        for r in checks:
            name = os.path.basename(r["record"])
            twin = name[: -len(".pcr")] + ".tfrec"
            same = all(dig.get(f) == digests[-1].get(f) for f in (name, twin))
            failed += len(r["failed"]) if same else r["n"]
    return failed


# ---------------------------------------------------------------- workloads


def run_read(spark, spec, sf, g, rundir, args, t0, tracer):
    import check
    from repro.core import dataset

    data = os.path.join(rundir, "data")
    dataset.build_pcr_dataset(spark, spec.name, data, sf=sf)
    # Warm-up: untimed epochs at scan group 1 start the Python workers and
    # compile the collect query's JVM paths at little cost.
    warm_up(lambda: dataset.collect_features(spark, data, 1))
    setup_s = time.perf_counter() - t0
    n_meta = metadata_rows(data)
    lines = []

    if tracer is None:
        epochs = []  # (seconds, rows)
        spent = 0.0
        while spent < args.seconds:
            t = time.perf_counter()
            pdf = dataset.collect_features(spark, data, g)
            dt = time.perf_counter() - t
            spent += dt
            epochs.append((dt, frame_rows(pdf)))
            del pdf
        rss = peak_rss_mib()
    else:
        with tracer.span("dataset.collect_features", trace="spark"):
            pdf, collect_s, tasks = timed_job(
                spark, "collect", lambda: dataset.collect_features(spark, data, g)
            )
        with tracer.span("dataset.load_features.count", trace="spark"):
            _, count_s, _ = timed_job(
                spark, "count", lambda: dataset.load_features(spark, data, g).count()
            )
        epochs = [(collect_s, frame_rows(pdf))]
        result_bytes = frame_bytes(pdf)
        del pdf

    checks = check_records(data, g)
    replay, bad = replay_of(checks)
    n_img = len(replay)
    failed = sum(
        max(check.epoch_failures(rows, replay, bad), abs(len(rows) - n_meta))
        for _, rows in epochs
    )
    attempted = max(1, n_img * len(epochs))
    reads = read_counts(checks, n_img)
    lines += check_lines(checks)
    lines.append(
        f"pcr bytes per image at scan {g}: measured {reads['bytes_read_per_img']:.1f} "
        f"(rchar around read_pcr), modelled {reads['prefix_bytes_per_img_modelled']:.1f} "
        f"(PcrInfo.prefix_bytes), ratio {reads['read_amp']:.4f}; "
        f"{reads['syscalls_per_record']:.2f} read syscalls per record; "
        "page-cache reads, so bytes are counts, not device time"
    )

    if tracer is None:
        img_per_s = throughput_line(
            lines, "epochs", n_img, [dt for dt, _ in epochs])
        metrics = {
            "img_per_s": img_per_s,
            "bytes_read_per_img": reads["bytes_read_per_img"],
            "stored_bytes_per_img": stored_bytes_per_img(data, n_img),
            "setup_s": setup_s,
            "driver_peak_rss_mb": rss,
        }
        return metrics, lines, attempted, failed

    busy_s, traced_s, results = replay_pairs(tracer, [
        (os.path.basename(p), lambda tr, p=p: check.replay_read_record(p, g, tr))
        for p in dataset.record_paths(data)
    ], lines)
    jpeg_bytes = sum(len(it[1]) for _, items, _, _ in results for it in items)
    metrics = layer_metrics(
        tracer, n_img, busy_s, traced_s, jpeg_bytes, 0,
        wall_s=collect_s, tasks=tasks, collect_s=collect_s, count_s=count_s,
        result_bytes=result_bytes, reads=reads,
    )
    return metrics, lines, attempted, failed


def run_encode(spark, spec, sf, rundir, args, t0, tracer):
    import check
    import pyarrow.parquet as pq
    from repro.core import dataset
    from repro.jpeg import N_SCANS

    # Warm-up: one wave of N small records of full-size images starts every
    # Python worker and the JVM write path at little cost.
    warm = os.path.join(rundir, "warm")
    warm_spec = registered(dataclasses.replace(
        spec, name=f"{spec.name}-warmup", images_per_record=4,
        n_images=N_CORES * 4,
    ))
    warm_up(lambda: dataset.build_pcr_dataset(spark, warm_spec.name, warm))
    setup_s = time.perf_counter() - t0
    shutil.rmtree(warm)
    lines = []

    builds, digests, spent, out = [], [], 0.0, None
    while spent < args.seconds or not builds:
        prev, out = out, os.path.join(rundir, f"encode{len(builds)}")
        if tracer is None:
            t = time.perf_counter()
            dataset.build_pcr_dataset(spark, spec.name, out, sf=sf)
            dt = time.perf_counter() - t
        else:
            with tracer.span("dataset.build_pcr_dataset", trace="spark"):
                _, dt, tasks = timed_job(
                    spark, "build",
                    lambda: dataset.build_pcr_dataset(spark, spec.name, out, sf=sf),
                )
        spent += dt
        builds.append(dt)
        digests.append(record_digests(out))
        if prev:
            shutil.rmtree(prev)
        if tracer is not None:
            break
    rss = peak_rss_mib()

    n_meta = metadata_rows(out)
    checks = check_records(out, N_SCANS)
    n_img = sum(r["n"] for r in checks)
    failed = encode_failures(checks, digests) + abs(n_meta - n_img) * len(builds)
    attempted = max(1, n_img * len(builds))
    reads = read_counts(checks, n_img)
    lines += check_lines(checks)
    stored = stored_bytes_per_img(out, n_img)
    lines.append(
        f"stored .pcr bytes per image {stored:.1f}; reading them back at scan "
        f"{N_SCANS}: measured {reads['bytes_read_per_img']:.1f}, modelled "
        f"{reads['prefix_bytes_per_img_modelled']:.1f} (PcrInfo.prefix_bytes)"
    )

    if tracer is None:
        img_per_s = throughput_line(lines, "encodes", n_img, builds)
        metrics = {
            "img_per_s": img_per_s,
            "bytes_read_per_img": reads["bytes_read_per_img"],
            "stored_bytes_per_img": stored,
            "setup_s": setup_s,
            "driver_peak_rss_mb": rss,
        }
        return metrics, lines, attempted, failed

    # Replay each Spark task's record, as Spark assigned ids to records.
    meta = pq.read_table(os.path.join(out, "metadata.parquet"),
                         columns=["record", "pos", "idx"]).to_pandas()
    members = {
        os.path.basename(rec): list(grp.sort_values("pos")["idx"])
        for rec, grp in meta.groupby("record")
    }
    replay_dir = os.path.join(rundir, "replay")
    os.makedirs(replay_dir)

    def replay(name, idxs, tr):
        base = os.path.join(replay_dir, name[: -len(".pcr")])
        return check.replay_encode_record(
            spec, idxs, base + ".pcr", base + ".tfrec", tr
        )

    busy_s, traced_s, results = replay_pairs(tracer, [
        (name, lambda tr, name=name, idxs=idxs: replay(name, idxs, tr))
        for name, idxs in sorted(members.items())
    ], lines)
    tf_bytes = sum(results)
    differs = [f for f, d in record_digests(replay_dir).items()
               if digests[-1].get(f) != d]
    if differs:
        lines.append(f"check: serial replay wrote different bytes for {differs}")
        failed += sum(len(members.get(f.rsplit(".", 1)[0] + ".pcr", []))
                      for f in differs if f.endswith(".pcr"))
    metrics = layer_metrics(
        tracer, n_img, busy_s, traced_s, 0, tf_bytes,
        wall_s=dt, tasks=tasks, collect_s=0.0, count_s=0.0, result_bytes=0,
        reads=reads,
    )
    return metrics, lines, attempted, failed


def replay_pairs(tracer, jobs, lines: list[str]):
    """Replay each record traced, then untraced, after one warm-up replay.

    ``jobs``: [(trace id, fn(tracer))]. Alternating per record keeps
    drift out of the traced/untraced comparison. Returns (untraced
    seconds, traced seconds, traced results). A record that raises is
    reported and skipped; its span carries the error.
    """
    try:
        jobs[0][1](None)
    except Exception:  # reported when the loop below replays it traced
        pass
    busy = traced = 0.0
    results = []
    for name, fn in jobs:
        t = time.perf_counter()
        try:
            with tracer.span("replay.record", trace=name):
                results.append(fn(tracer))
        except Exception as e:  # counted in the layer's errors
            lines.append(f"replay: {name}: {e!r}")
            continue
        traced += time.perf_counter() - t
        t = time.perf_counter()
        fn(None)
        busy += time.perf_counter() - t
    return busy, traced, results


def layer_metrics(tracer, n_img, busy_s, traced_s, jpeg_bytes, tf_bytes, *,
                  wall_s, tasks, collect_s, count_s, result_bytes, reads):
    """Per-layer metrics from the traced replay and the Spark calls."""
    from spans import self_times

    st = self_times(tracer.spans)

    def ms(*names):
        return sum(st.get(n, {}).get("self_ns", 0) for n in names) / 1e6 / n_img

    def errors(layer):
        calls = errs = 0
        for name, agg in st.items():
            if name.startswith(layer + "."):
                calls += agg["calls"]
                errs += agg["errors"]
        return errs / calls if calls else 0.0

    entropy_s = st.get("jpeg.decode_to_coeffs", {}).get("self_ns", 0) / 1e9
    m = {
        "dataset.tasks": float(tasks),
        "dataset.parallel_eff": busy_s / (wall_s * N_CORES),
        "dataset.overhead_ms_per_img": (wall_s - busy_s / N_CORES) * 1e3 / n_img,
        "dataset.collect_ms_per_img": (collect_s - count_s) * 1e3 / n_img,
        "dataset.result_bytes_per_img": result_bytes / n_img,
        "replay.busy_ms_per_img": busy_s * 1e3 / n_img,
        "pcr.read_ms_per_img": ms("pcr.read_index", "pcr.read_pcr"),
        "pcr.read_syscalls_per_record": reads["syscalls_per_record"],
        "pcr.bytes_read_per_img": reads["bytes_read_per_img"],
        "pcr.prefix_bytes_per_img_modelled": reads["prefix_bytes_per_img_modelled"],
        "pcr.read_amp": reads["read_amp"],
        "pcr.write_ms_per_img": ms("pcr.write_pcr"),
        "jpeg.entropy_ms_per_img": ms("jpeg.decode_to_coeffs"),
        "jpeg.entropy_mb_per_s": jpeg_bytes / entropy_s / 1e6 if entropy_s else 0.0,
        "jpeg.inverse_ms_per_img": ms("jpeg.inverse"),
        "jpeg.encode_ms_per_img": ms("jpeg.encode_baseline"),
        "jpeg.transcode_ms_per_img": ms("jpeg.baseline_to_progressive"),
        "features.extract_ms_per_img": ms("features.extract_features"),
        "synth.generate_ms_per_img": ms("synth.generate_image"),
        "tfrecord.write_ms_per_img": ms("tfrecord.write_tfrecord"),
        "tfrecord.bytes_per_img": tf_bytes / n_img,
        "trace.overhead_frac": (traced_s - busy_s) / busy_s,
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors(layer)
    return m


def stage_line(workload: str, tracer, n_img: int, m: dict) -> str:
    """One line: self time per replayed call, largest first, and Spark's split."""
    from spans import self_times

    parts = sorted(
        ((a["self_ns"], name) for name, a in self_times(tracer.spans).items()
         if not name.startswith("dataset.")),
        reverse=True,
    )
    replay_ns = sum(ns for ns, _ in parts)
    stages = " | ".join(
        f"{name} {ns / 1e6 / n_img:.2f} ms/img ({100 * ns / replay_ns:.1f}%)"
        for ns, name in parts
    )
    return (
        f"stages {workload}: serial replay self time: {stages}; "
        f"Spark local[{N_CORES}]: busy/N {m['replay.busy_ms_per_img'] / N_CORES:.2f} "
        f"+ overhead {m['dataset.overhead_ms_per_img']:.2f} ms/img, "
        f"parallel_eff {m['dataset.parallel_eff']:.3f}, "
        f"{m['dataset.tasks']:.0f} tasks"
    )


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run(args, rundir: str):
    import check
    from spans import Tracer

    dataset_name, sf, g = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    spark = start_spark(rundir)
    try:
        spec = seeded_spec(dataset_name, args.seed)
        if g is None:
            metrics, lines, attempted, failed = run_encode(
                spark, spec, sf, rundir, args, t0, tracer)
        else:
            metrics, lines, attempted, failed = run_read(
                spark, spec, sf, g, rundir, args, t0, tracer)
    finally:
        stop_spark(spark)

    problems = check.selftest(os.path.join(rundir, "selftest"))
    lines += [f"selftest: {p}" for p in problems]
    lines.append(f"check: {failed} of {attempted} images failed; checker "
                 f"self-test {'FAILED' if problems else 'passed'}")
    if tracer is not None:
        metrics["failed_frac"] = failed / attempted
        n_img = attempted  # one Spark call and one replay per image
        lines.append(stage_line(args.workload, tracer, n_img, metrics))
        trace_dir = os.path.join(WORK, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        spans_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    lines += [f"{k} = {metrics[k]:.6g} {u}" for k, u in units.items()]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "dataset.py")):
        print(f"perfbench: no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    become_subreaper()
    # On SIGTERM, unwind through the finally blocks: stop Spark, remove inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        result, lines = run(args, rundir)
    finally:
        reap_descendants()
        shutil.rmtree(rundir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
