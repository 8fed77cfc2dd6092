"""Tests for the experiment harness (cluster config, formatting, caching)."""
import os

import pandas as pd
import pytest

from repro.core import harness
from repro.core.analysis import scan_size_stats
from repro.core.dataset import read_metadata
from repro.iosim.pipeline import MODEL_RATES


def test_cluster_rate_uses_paper_constants():
    assert harness.cluster_rate("resnet_lite") == 450.0 * harness.N_NODES
    assert harness.cluster_rate("shufflenet_lite", 20) == 750.0 * 20


def test_reference_bandwidth_regime(spark, celeba_dir):
    """W is chosen so full fidelity is I/O bound at half the compute rate."""
    meta = read_metadata(spark, celeba_dir)
    W = harness.reference_bandwidth(meta)
    mean_full = float(scan_size_stats(meta).iloc[0]["mean_cum_10"])
    assert W / mean_full == pytest.approx(0.5 * harness.cluster_rate("resnet_lite"))


def test_dataset_dir_respects_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_DATA", str(tmp_path))
    assert harness.dataset_dir("x", 0.5) == os.path.join(str(tmp_path), "x_sf0.5")


def test_get_or_build_caches(spark, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_DATA", str(tmp_path))
    out1 = harness.get_or_build(spark, "celeba_lite", sf=0.1)
    marker = os.path.join(out1, "record_0000.pcr")
    mtime = os.path.getmtime(marker)
    out2 = harness.get_or_build(spark, "celeba_lite", sf=0.1)
    assert out1 == out2
    assert os.path.getmtime(marker) == mtime  # not rebuilt


def test_fmt_table_markdown():
    pdf = pd.DataFrame({"a": [1, 2], "b": [0.5, 1.25]})
    s = harness.fmt_table(pdf)
    lines = s.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert len(lines) == 4


def test_fmt_table_float_formatting():
    pdf = pd.DataFrame({"x": [1234.5678]})
    assert "1.23e+03" in harness.fmt_table(pdf)

