"""Unit tests for the TFRecord baseline record layout."""
import os

import pytest

from repro.formats import tfrecord


@pytest.fixture()
def items():
    return [(bytes([i]) * (50 + i), i % 3) for i in range(10)]


def test_tfrecord_roundtrip(tmp_path, items):
    p = str(tmp_path / "x.tfrec")
    total = tfrecord.write_tfrecord(p, items)
    assert os.path.getsize(p) == total
    out = tfrecord.read_tfrecord(p)
    assert [(j, l) for j, l in zip((i[0] for i in items), (i[1] for i in items))] == [
        (j, l) for l, j in out
    ]


def test_tfrecord_framing_overhead(tmp_path, items):
    p = str(tmp_path / "x.tfrec")
    total = tfrecord.write_tfrecord(p, items)
    payload = sum(len(j) for j, _ in items)
    # 16 bytes framing + 8 bytes example header per record.
    assert total == payload + 24 * len(items)
    assert tfrecord.RECORD_OVERHEAD == 24


def test_tfrecord_crc_detects_corruption(tmp_path, items):
    p = str(tmp_path / "x.tfrec")
    tfrecord.write_tfrecord(p, items)
    data = bytearray(open(p, "rb").read())
    data[20] ^= 0xFF
    open(p, "wb").write(bytes(data))
    with pytest.raises(AssertionError):
        tfrecord.read_tfrecord(p)

