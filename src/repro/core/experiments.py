"""Measurement harnesses for the paper's tables (size / decode / I/O side).

Each function returns a tidy pandas DataFrame with one row per table
cell-group, ready for ``harness.fmt_table``. Training-side experiments
live in ``repro.train.experiments``.
"""
import os
import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import harness, pcr
from repro.core.analysis import (
    scan_size_distribution,
    scan_size_stats,
    size_reduction_table,
    speedup_table,
)
from repro.core.dataset import dataset_summary, read_metadata, record_paths
from repro.formats import tfrecord
from repro.iosim.pipeline import simulate_training, system_throughput
from repro.iosim.storage import MiB, StorageModel
from repro.jpeg import N_SCANS, decode
from repro.metrics.mssim import msssim
from repro.synth_images import SPECS

ALL_DATASETS = list(SPECS)
TABLE_SCANS = (1, 2, 5, 10)


def table1_size_reduction(spark: SparkSession, sf: float = 1.0) -> pd.DataFrame:
    """Paper Table 1: size reduction factor per scan + mean image size."""
    rows = []
    for name in ALL_DATASETS:
        meta = read_metadata(spark, harness.get_or_build(spark, name, sf))
        r = size_reduction_table(meta, scans=TABLE_SCANS)
        rows.append({"dataset": name, **r})
    return pd.DataFrame(rows)


def table2_decode_rates(spark: SparkSession, sf: float = 1.0,
                        n_images: int = 24, reps: int = 2) -> pd.DataFrame:
    """Paper Table 2: single-core decode rate (images/s) per encoding.

    Decodes run in a plain driver-side loop — single core by
    construction, as in the paper's microbenchmark.
    """
    rows = []
    for name in ALL_DATASETS:
        out = harness.get_or_build(spark, name, sf)
        paths = record_paths(out)
        per_scan = {}
        variants: dict[str, list[bytes]] = {}
        for g in TABLE_SCANS:
            variants[f"scan_{g}"] = [
                j for _, j in pcr.read_pcr(paths[0], g)[:n_images]
            ]
        variants["baseline"] = [
            j for _, j in tfrecord.read_tfrecord(paths[0].replace(".pcr", ".tfrec"))[:n_images]
        ]
        for key, datas in variants.items():
            for d in datas:
                decode(d)  # warmup (numpy/LUT caches)
            t0 = time.perf_counter()
            n = 0
            for _ in range(reps):
                for d in datas:
                    decode(d)
                    n += 1
            per_scan[key] = n / (time.perf_counter() - t0)
        rows.append({"dataset": name, **{k: round(v, 1) for k, v in per_scan.items()}})
    return pd.DataFrame(rows)


def table3_dataset_summary(spark: SparkSession, sf: float = 1.0) -> pd.DataFrame:
    """Paper Table 3: records / images / size / quality / classes."""
    return pd.DataFrame(
        [
            dataset_summary(spark, harness.get_or_build(spark, name, sf), name)
            for name in ALL_DATASETS
        ]
    )


def fig5_throughput(spark: SparkSession, dataset: str = "imagenet_lite",
                    sf: float = 1.0, model: str = "resnet_lite") -> pd.DataFrame:
    """Fig 5/15/24-middle: cluster training rate per scan, predicted vs
    event-simulated, plus the TFRecord baseline row."""
    out = harness.get_or_build(spark, dataset, sf)
    meta = read_metadata(spark, out)
    W = harness.reference_bandwidth(meta, "resnet_lite")
    rate = harness.cluster_rate(model)
    stats = scan_size_stats(meta).iloc[0]
    spec = SPECS[dataset]
    pred = speedup_table(meta, compute_rate=rate, bandwidth=W)
    rows = []
    for _, r in pred.iterrows():
        sim = simulate_training(
            n_records=64, images_per_record=spec.images_per_record,
            mean_image_bytes=r["mean_bytes"], bandwidth=W, compute_rate=rate,
        )
        rows.append(
            {
                "config": f"scan_{int(r['scan'])}",
                "mean_bytes": r["mean_bytes"],
                "predicted_rate": r["predicted_rate"],
                "simulated_rate": sim.throughput,
            }
        )
    # TFRecord row: baseline mean size (~= scan 10).
    mb = float(stats["mean_baseline"]) + tfrecord.RECORD_OVERHEAD
    sim = simulate_training(64, spec.images_per_record, mb, W, rate)
    rows.append(
        {
            "config": "tfrecord",
            "mean_bytes": mb,
            "predicted_rate": system_throughput(W, mb, rate),
            "simulated_rate": sim.throughput,
        }
    )
    df = pd.DataFrame(rows)
    df["bandwidth_MiB_s"] = W / MiB
    return df


def fig8_scan_sizes(spark: SparkSession, sf: float = 1.0) -> pd.DataFrame:
    """Fig 8: cumulative bytes per scan level (median + IQR) per dataset."""
    frames = []
    for name in ALL_DATASETS:
        d = scan_size_distribution(
            read_metadata(spark, harness.get_or_build(spark, name, sf))
        )
        d.insert(0, "dataset", name)
        frames.append(d)
    return pd.concat(frames, ignore_index=True)


def fig13_mssim(spark: SparkSession, sf: float = 1.0,
                n_images: int = 12) -> pd.DataFrame:
    """Fig 13/23: mean MSSIM of each scan group vs full fidelity."""
    rows = []
    for name in ALL_DATASETS:
        out = harness.get_or_build(spark, name, sf)
        path = record_paths(out)[0]
        full = [decode(j) for _, j in pcr.read_pcr(path, N_SCANS)[:n_images]]
        row = {"dataset": name}
        for g in TABLE_SCANS:
            part = [decode(j) for _, j in pcr.read_pcr(path, g)[:n_images]]
            row[f"scan_{g}"] = float(
                np.mean([msssim(p, f) for p, f in zip(part, full)])
            )
        rows.append(row)
    return pd.DataFrame(rows)


def fig22_encoding_times(spark: SparkSession, sf: float = 1.0,
                         qualities=(50, 75, 90, 95)) -> pd.DataFrame:
    """Fig 22/§A.4: PCR conversion time vs re-encoding at static qualities.

    PCR columns come from the timings recorded at dataset build. Static
    re-encode times are measured here in Spark (decode + re-encode at
    quality q per image), the multi-fidelity alternative the paper
    compares against. Sizes show the space amplification story.
    """
    from pyspark.sql import functions as F

    from repro.jpeg import encode_baseline

    rows = []
    for name in ALL_DATASETS:
        out = harness.get_or_build(spark, name, sf)
        meta = read_metadata(spark, out)
        t = (
            meta.groupBy("record")
            .agg(
                F.first("encode_s").alias("encode_s"),
                F.first("transcode_s").alias("transcode_s"),
                F.first("write_s").alias("write_s"),
            )
            .agg(
                F.sum("encode_s").alias("jpeg_s"),
                F.sum("transcode_s").alias("convert_s"),
                F.sum("write_s").alias("write_s"),
            )
            .collect()[0]
        )
        pcr_bytes = sum(os.path.getsize(p) for p in record_paths(out))
        base_bytes = meta.agg(F.sum("baseline_bytes")).collect()[0][0]

        paths = record_paths(out)
        pdf = pd.DataFrame({"path": [p.replace(".pcr", ".tfrec") for p in paths]})
        df = spark.createDataFrame(pdf).repartition(len(paths))

        def reencode(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            for b in batches:
                for path in b["path"]:
                    items = tfrecord.read_tfrecord(path)
                    outrows = []
                    for q in qualities:
                        t0 = time.perf_counter()
                        nbytes = 0
                        for _, jpeg in items:
                            img = decode(jpeg)
                            nbytes += len(encode_baseline(img, q))
                        outrows.append(
                            {"q": q, "seconds": time.perf_counter() - t0,
                             "bytes": nbytes}
                        )
                    yield pd.DataFrame(outrows)

        static = (
            df.mapInPandas(reencode, schema="q int, seconds double, bytes long")
            .groupBy("q")
            .agg(F.sum("seconds").alias("seconds"), F.sum("bytes").alias("bytes"))
            .toPandas()
            .sort_values("q")
        )
        static_total_s = float(static["seconds"].sum())
        static_total_b = int(static["bytes"].sum())
        pcr_total = float(t["convert_s"] + t["write_s"])
        rows.append(
            {
                "dataset": name,
                "pcr_convert_s": pcr_total,
                "static_one_quality_s": float(static["seconds"].iloc[-1]),
                "static_all_qualities_s": static_total_s,
                "pcr_over_one_static": pcr_total / float(static["seconds"].iloc[-1]),
                "pcr_bytes": pcr_bytes,
                "baseline_bytes": int(base_bytes),
                "static_all_qualities_bytes": static_total_b,
                "space_amplification_static": static_total_b / base_bytes,
                "space_amplification_pcr": pcr_bytes / base_bytes,
            }
        )
    return pd.DataFrame(rows)


def fig24_reader(spark: SparkSession, dataset: str = "celeba_lite",
                 sf: float = 1.0, reps: int = 3) -> pd.DataFrame:
    """Fig 24 + §6.2 FPI claim: reader throughput per scan.

    'measured' columns are wall-clock PCR prefix reads + reassembly (no
    decode), like the paper's reader microbenchmark; 'modeled' columns
    run the storage cost model, which also prices the File-per-Image
    layout (per-image seeks).
    """
    out = harness.get_or_build(spark, dataset, sf)
    paths = record_paths(out)
    meta = read_metadata(spark, out)
    stats = scan_size_stats(meta).iloc[0]
    n_img = sum(pcr.read_index(p).n_images for p in paths)
    storage = StorageModel()
    rows = []
    for g in TABLE_SCANS:
        t0 = time.perf_counter()
        n = 0
        for _ in range(reps):
            for p in paths:
                n += len(pcr.read_pcr(p, g))
        measured = n / (time.perf_counter() - t0)
        nbytes = sum(pcr.read_index(p).prefix_bytes(g) for p in paths)
        modeled = n_img / storage.read_time(nbytes, n_seeks=len(paths))
        rows.append(
            {
                "config": f"scan_{g}",
                "measured_img_s": measured,
                "modeled_img_s": modeled,
                "bytes_per_img": nbytes / n_img,
            }
        )
    # TFRecord full read.
    t0 = time.perf_counter()
    n = 0
    for _ in range(reps):
        for p in paths:
            n += len(tfrecord.read_tfrecord(p.replace(".pcr", ".tfrec")))
    measured = n / (time.perf_counter() - t0)
    tf_bytes = sum(
        os.path.getsize(p.replace(".pcr", ".tfrec")) for p in paths
    )
    rows.append(
        {
            "config": "tfrecord",
            "measured_img_s": measured,
            "modeled_img_s": n_img / storage.read_time(tf_bytes, len(paths)),
            "bytes_per_img": tf_bytes / n_img,
        }
    )
    # File-per-Image: storage model only (seek per image dominates).
    mean_img = float(stats["mean_baseline"])
    rows.append(
        {
            "config": "file_per_image",
            "measured_img_s": float("nan"),
            "modeled_img_s": n_img / storage.fpi_epoch_time(n_img, mean_img),
            "bytes_per_img": mean_img,
        }
    )
    return pd.DataFrame(rows)
