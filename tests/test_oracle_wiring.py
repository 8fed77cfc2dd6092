"""Sanity checks that the DuckDB oracle catches real mismatches.

They run over the PCR metadata sidecar of the session dataset, the
table every Spark aggregation in the reproduction reads.
"""
import pytest
from pyspark.sql import functions as F

from repro.core.dataset import load_features, read_metadata
from repro.oracle import assert_equivalent


def test_oracle_accepts_matching_aggregation(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    got = meta.groupBy("label").agg(
        F.sum("progressive_bytes").alias("nbytes"), F.count("*").alias("n")
    )
    assert_equivalent(
        got,
        "SELECT label, sum(progressive_bytes) AS nbytes, count(*) AS n "
        "FROM meta GROUP BY label",
        meta=meta,
    )


def test_oracle_rejects_wrong_result(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    wrong = meta.groupBy("label").agg(
        (F.sum("progressive_bytes") + 1).alias("nbytes"),
        F.count("*").alias("n"),
    )
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT label, sum(progressive_bytes) AS nbytes, count(*) AS n "
            "FROM meta GROUP BY label",
            meta=meta,
        )


def test_oracle_join_path(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    feats = load_features(spark, celeba_dir, 1).select("record", "pos", "label")
    got = (
        feats.join(meta.select("record", "pos", "is_test"), on=["record", "pos"])
        .groupBy("is_test")
        .agg(F.count("*").alias("n"))
    )
    assert_equivalent(
        got,
        "SELECT is_test, count(*) AS n FROM feats "
        "JOIN meta USING (record, pos) GROUP BY is_test",
        feats=feats,
        meta=meta,
    )
