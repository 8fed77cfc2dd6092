"""Tests for the job registry and entrypoint in jobs/run_all.py."""
import importlib.util
import os

import pytest

from repro.core import harness

_PATH = os.path.join(os.path.dirname(__file__), "..", "jobs", "run_all.py")


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location("run_all", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_registry_names_and_order(run_all):
    assert list(run_all.JOBS) == [
        "table1_size_reduction",
        "table2_decode_rates",
        "table3_dataset_summary",
        "fig5_throughput",
        "fig8_scan_sizes",
        "fig13_mssim",
        "fig7_time_to_accuracy",
        "fig6_gradsim",
        "fig14_autotune",
        "fig16_bandwidth_sweep",
        "fig22_encoding_times",
        "fig24_reader",
    ]


def test_unknown_job_rejected_before_spark(run_all, monkeypatch, capsys):
    def no_spark(app):
        raise AssertionError("Spark started for an invalid --only")

    monkeypatch.setattr(run_all, "job_spark", no_spark)
    assert run_all.main(["--only=nope"]) != 0
    err = capsys.readouterr().err
    assert "nope" in err
    for name in run_all.JOBS:
        assert name in err


def test_report_sections(run_all, spark, celeba_dir, monkeypatch):
    monkeypatch.setattr(harness, "get_or_build", lambda spark, n, sf=1.0: celeba_dir)
    names = ["table3_dataset_summary", "fig8_scan_sizes"]
    sections = run_all.report(spark, names, 0.25).split("\n\n---\n\n")
    assert len(sections) == 2
    for name, section in zip(names, sections):
        job = run_all.JOBS[name]
        assert section.startswith(f"# {job.title}\n\n|")
        assert section.endswith("\n\n" + job.paper)
