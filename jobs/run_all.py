"""Every table/figure job of the reproduction, and one entrypoint for them.

Run: python jobs/run_all.py [--sf=1.0] [--only=<name>[,<name>]]
(or the same arguments to ``spark-submit jobs/run_all.py``). ``--only``
picks jobs by their ``JOBS`` name, e.g. ``--only=table1_size_reduction``;
without it every job runs, in ``JOBS`` order. Each job prints one
section: ``# <title>``, our table(s), then the paper's claim. The full
output is the source of the "ours" numbers recorded in EXPERIMENTS.md.
"""
import argparse
import sys
from typing import Callable, NamedTuple

from pyspark.sql import SparkSession

from repro.core import experiments as cx
from repro.core.harness import fmt_table, job_spark
from repro.train import experiments as tx


class Job(NamedTuple):
    title: str
    body: Callable[[SparkSession, float], str]  # (spark, sf) -> markdown
    paper: str


def _sections(parts) -> str:
    """``## <heading>`` + table per (heading, DataFrame) pair."""
    return "\n\n".join(f"## {h}\n\n" + fmt_table(t) for h, t in parts)


def _fig5(spark, sf):
    return _sections(
        (f"{model} (imagenet_lite)",
         cx.fig5_throughput(spark, "imagenet_lite", sf=sf, model=model))
        for model in ("resnet_lite", "shufflenet_lite")
    )


def _fig7(spark, sf):
    """Per-dataset tables for both model profiles, then the Cars
    label-coarsening experiment (Fig 11: Baseline / Make-Only /
    Is-Corvette)."""
    per_dataset = [
        (ds, tx.fig7_time_to_accuracy(spark, ds, sf=sf))
        for ds in ("imagenet_lite", "ham_lite", "celeba_lite")
    ]
    cars = [
        (title, tx.fig7_time_to_accuracy(
            spark, "cars_lite", sf=sf, models=("resnet_lite",),
            label_col=label_col))
        for label_col, title in (
            ("label", "cars_lite baseline task"),
            ("make", "cars_lite make-only"),
            ("is_zero", "cars_lite is-corvette (binary)"),
        )
    ]
    return _sections(per_dataset + cars)


def _fig14(spark, sf):
    return _sections(
        (f"threshold {thr}",
         tx.fig14_autotune(spark, "imagenet_lite", sf=sf, threshold=thr))
        for thr in (0.8, 0.9)
    )


JOBS: dict[str, Job] = {
    "table1_size_reduction": Job(
        "Table 1 — size reduction per scan group (ours)",
        lambda spark, sf: fmt_table(cx.table1_size_reduction(spark, sf=sf)),
        """Paper Table 1 (reduction factor vs full fidelity):
| Dataset | Scan 1 | Scan 2 | Scan 5 | Scan 10 | mean size |
|---|---|---|---|---|---|
| ImageNet | 16x | 7x | 2x | 1x | 110kB |
| HAM10000 | 30x | 15x | 3x | 1x | 250kB |
| Cars | 14x | 6x | 2x | 1x | 110kB |
| CelebAHQ | 7x | 4x | 3x | 1x | 80kB |""",
    ),
    "table2_decode_rates": Job(
        "Table 2 — single-core decode rates (ours)",
        lambda spark, sf: fmt_table(cx.table2_decode_rates(spark, sf=sf)),
        """Paper Table 2 (images/s, single core):
| Dataset | Scan 1 | Scan 2 | Scan 5 | Scan 10 | Baseline |
|---|---|---|---|---|---|
| ImageNet | 433 | 412 | 340 | 146 | 419 |
| HAM10000 | 465 | 438 | 275 | 96 | 240 |
| Cars | 266 | 240 | 225 | 127 | 268 |
| CelebAHQ | 239 | 213 | 195 | 129 | 286 |""",
    ),
    "table3_dataset_summary": Job(
        "Table 3 — PCR dataset summary (ours)",
        lambda spark, sf: fmt_table(cx.table3_dataset_summary(spark, sf=sf)),
        """Paper Table 3:
| Dataset | Records | Images | Size | Quality | Classes |
|---|---|---|---|---|---|
| ImageNet | 1251 | 1281167 | 129GiB | 91.7% | 1000 |
| HAM10000 | 125 | 8012 | 2GiB | 100% | 7 |
| Cars | 63 | 8144 | 887MiB | 83.8% | 196 |
| CelebAHQ | 93 | 24000 | 2GiB | 75% | 2 |""",
    ),
    "fig5_throughput": Job(
        "Fig 5/15 — training rate per scan (ours)",
        _fig5,
        """Paper Fig 5 (10-node TitanX, ResNet-18/ImageNet): throughput rises as
scans shrink until the ~4500 img/s compute limit; TFRecord ~= scan 10;
predicted rates (W / mean size, capped at compute) closely match measured.""",
    ),
    "fig8_scan_sizes": Job(
        "Fig 8 — per-scan cumulative sizes (ours)",
        lambda spark, sf: fmt_table(cx.fig8_scan_sizes(spark, sf=sf)),
        """Paper Fig 8: each scan adds roughly a constant amount of data (linear
scaling) with clustering from chroma scans; all 10 scans can need >10x
the bandwidth of scans 1-2.""",
    ),
    "fig13_mssim": Job(
        "Fig 13/23 — MSSIM per scan group (ours)",
        lambda spark, sf: fmt_table(cx.fig13_mssim(spark, sf=sf)),
        """Paper Fig 13/23: MSSIM decreases for lower scans; scan groups >= 5 sit
above ~0.95 MSSIM, which is why they consistently reach full accuracy;
MSSIM correlates linearly with final test accuracy within a task.""",
    ),
    "fig7_time_to_accuracy": Job(
        "Figs 7/9/10/11 — time to accuracy (ours)",
        _fig7,
        """Paper Figs 7/9/10/11: lower scans cut time-to-accuracy up to ~2x;
scans 1-2 may cost final accuracy on hard tasks (ImageNet) but not easy
ones (CelebA binary); ShuffleNet needs scan >= 5 on HAM10000 while
ResNet tolerates scan 1; coarsening Cars labels closes the scan gap.""",
    ),
    "fig6_gradsim": Job(
        "Fig 6 — gradient similarity (ours, ham_lite/resnet_lite)",
        lambda spark, sf: fmt_table(
            tx.fig6_gradient_similarity(spark, "ham_lite", sf=sf)),
        """Paper Fig 6 (ResNet/HAM10000): similarity is exact for scan 10,
decreases for lower scans as the model converges; high-quality scans
stay within ~0.1 of the baseline gradient (above the 0.8 threshold).""",
    ),
    "fig14_autotune": Job(
        "Fig 14 — autotuning (ours, imagenet_lite/resnet_lite)",
        _fig14,
        """Paper Fig 14 (ImageNet, 90 epochs): autotuning matches scan-10
accuracy while running almost as fast as static scan 5 (the warmup at
scan 10 blends the two latencies); raising the threshold to 0.9 pushes
the last epochs back to scan 10 at slightly longer time.""",
    ),
    "fig16_bandwidth_sweep": Job(
        "Fig 16 — bandwidth sweep (ours, imagenet_lite)",
        lambda spark, sf: fmt_table(
            tx.fig16_bandwidth_sweep(spark, "imagenet_lite", sf=sf)),
        """Paper Fig 16 (10 nodes, token-bucket limits 20..500 MiB/s): at very
low bandwidth every scan reduction helps; at high bandwidth the
benefits vanish; faster models (ShuffleNet) stay I/O bound to higher
bandwidths, so low scans keep helping them longer.""",
    ),
    "fig22_encoding_times": Job(
        "Fig 22 — encoding time & space (ours)",
        lambda spark, sf: fmt_table(cx.fig22_encoding_times(spark, sf=sf)),
        """Paper Fig 22/§A.4: one PCR conversion costs 1.13-2.05x a single
static re-encode, but static needs one encode per quality level (costs
sum) and amplifies dataset size 1.5-40x; PCR keeps one copy (~no
amplification).""",
    ),
    "fig24_reader": Job(
        "Fig 24 — reader throughput (ours, celeba_lite)",
        lambda spark, sf: fmt_table(cx.fig24_reader(spark, "celeba_lite", sf=sf)),
        """Paper Fig 24 + §6.2: reader throughput in images/s scales as
1/mean-bytes-per-image (drive saturated at every scan); baseline JPEG
reads within ~4% of scan 10; File-per-Image is ~25x slower than record
layouts due to per-image seeks.""",
    ),
}


def report(spark: SparkSession, names, sf: float = 1.0) -> str:
    """The markdown report of the named jobs, in the order given."""
    return "\n\n---\n\n".join(
        f"# {JOBS[n].title}\n\n{JOBS[n].body(spark, sf)}\n\n{JOBS[n].paper}"
        for n in names
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Print the paper's tables/figures.")
    p.add_argument("--sf", type=float, default=1.0, help="dataset scale factor")
    p.add_argument("--only", default=",".join(JOBS),
                   help="comma-separated job names (default: all)")
    args = p.parse_args(argv)
    names = args.only.split(",")
    unknown = [n for n in names if n not in JOBS]
    if unknown:
        print(f"unknown job(s): {', '.join(unknown)}\n"
              f"valid jobs: {', '.join(JOBS)}", file=sys.stderr)
        return 2
    spark = job_spark("run_all")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        print(report(spark, names, args.sf))
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
