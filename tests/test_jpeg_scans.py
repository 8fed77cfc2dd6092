"""Entropy-coded scans: pinned output bytes, edge-case bands, malformed scans."""
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.jpeg import (
    baseline_to_progressive,
    decode_to_coeffs,
    encode_baseline,
    encode_progressive,
    markers,
)
from repro.jpeg.baseline import encode_baseline_from_coeffs
from repro.jpeg.codec import CoeffImage, Component
from repro.jpeg.progressive import encode_progressive_from_coeffs
from repro.synth_images import SPECS, generate_image

# sha256 of encode_baseline + encode_progressive + baseline_to_progressive
# output, concatenated. Any change to the entropy coder, the tables or the
# marker layout moves these; decoded pixels alone would not notice.
GOLDEN = {
    "imagenet_lite": "099ff01797fdb1eb44fcf730e9439e72321dece143832e7e659dff1220cd36f7",
    "ham_lite": "a3625897fdcdf77d1f3775daedf9f1000f40970fd72dddc31998a8881fe870b9",
    "cars_lite": "bdd84d8d19eea3d7548ca999b1dced23653b432e112b6f651b7eff2c5995e7f6",
    "celeba_lite": "921c3aa3b993952c409825e48d534a48a1101103da062852a2b18fbb6d10f883",
    "rgb_noise_37x53": "ca9f86807572ad072cbeb4988dc629dad0a18121a6c53c02941b56b5dd632f4c",
    "gray_noise_41x19": "9e1b3facb68ed3e47d2ae9369dab3e1512f6b41c6c7661431098c3d180a7113e",
}


def _golden_input(label):
    if label in SPECS:
        return generate_image(SPECS[label], 0)[0], SPECS[label].quality
    # Both noise images come from one generator, RGB drawn first.
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, (37, 53, 3), dtype=np.uint8)
    if label == "rgb_noise_37x53":
        return rgb, 100
    return rng.integers(0, 256, (41, 19), dtype=np.uint8), 95


@pytest.mark.parametrize("label", list(GOLDEN))
def test_encoder_output_bytes_pinned(label):
    img, quality = _golden_input(label)
    b = encode_baseline(img, quality)
    data = b + encode_progressive(img, quality) + baseline_to_progressive(b)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[label]


def _sparse_gray(nby=182, nbx=181):
    """A grey image of >= 0x7FFF blocks whose AC is zero except a lone
    zigzag-63 coefficient in block 1 and in the last block: end-of-band
    runs reach the 0x7FFF flush, and ZRL chains run to the band's end."""
    coeffs = np.zeros((nby * nbx, 64), dtype=np.int32)
    coeffs[:, 0] = np.arange(nby * nbx) % 7 - 3
    coeffs[1, 63] = 5
    coeffs[-1, 63] = -1
    comp = Component(1, 0, coeffs, nby, nbx)
    return CoeffImage(nby * 8, nbx * 8, [comp], [np.ones((8, 8), dtype=np.int32)])


@pytest.mark.parametrize(
    "encode", [encode_baseline_from_coeffs, encode_progressive_from_coeffs]
)
def test_long_eob_runs_and_full_bands_roundtrip(encode):
    ci = _sparse_gray()
    assert ci.components[0].coeffs.shape[0] >= 0x7FFF
    out = decode_to_coeffs(encode(ci))
    assert np.array_equal(out.components[0].coeffs, ci.components[0].coeffs)


def _image(color=True):
    yy, xx = np.mgrid[0:32, 0:40]
    g = 128 + 60 * np.sin(xx / 3) * np.cos(yy / 4)
    if not color:
        return g.astype(np.uint8)
    return np.stack([g, 255 - g, g / 2 + 40], axis=-1).astype(np.uint8)


def _segments(data, marker):
    return [s for s in markers.parse(data) if s.marker == marker]


def _patch(data, offset, value):
    return data[:offset] + bytes([value]) + data[offset + 1 :]


def _patch_sos(data, scan, field, value):
    """Overwrite Ss (field -3), Se (-2) or Ah/Al (-1) of the given scan."""
    s = _segments(data, markers.SOS)[scan]
    return _patch(data, s.offset + 4 + len(s.payload) + field, value)


def _eobn_in_baseline():
    # Rename the AC table's EOB symbol (0x00) to EOB1 (0x10): same code,
    # but an end-of-band run that only progressive scans may carry.
    b = encode_baseline(_image(color=False), 90)
    dht = _segments(b, markers.DHT)[0]
    n_dc = sum(dht.payload[1:17])
    ac = 17 + n_dc
    values = dht.payload[ac + 17 :]
    return _patch(b, dht.offset + 4 + ac + 17 + values.index(0x00), 0x10)


def _without_sof(data):
    sof = _segments(data, markers.SOF2)[0]
    return data[: sof.offset] + data[sof.end :]


def _malformed_cases():
    """(name, bytes, error pattern) for inputs the decoder must reject."""
    b = encode_baseline(_image(), 90)
    p = encode_progressive(_image(), 90)
    dqt = _segments(p, markers.DQT)[0].offset + 4
    sof = _segments(p, markers.SOF2)[0].offset + 4
    header_end = markers.scan_spans(p)[0][1]
    return [
        ("eobn_in_baseline", _eobn_in_baseline(), "EOB run of 2 blocks"),
        ("successive_approx_baseline", _patch_sos(b, 0, -1, 0x01), "successive"),
        ("successive_approx_progressive", _patch_sos(p, 1, -1, 0x10), "successive"),
        ("baseline_band_not_full", _patch_sos(b, 0, -2, 62), "band 0..62"),
        ("baseline_ac_only_band", _patch_sos(b, 0, -3, 1), "band 1..63"),
        ("progressive_dc_with_ac", _patch_sos(p, 0, -2, 5), "band 0..5"),
        ("progressive_ss_after_se", _patch_sos(p, 1, -3, 6), "band 6..5"),
        ("progressive_se_past_63", _patch_sos(p, 2, -2, 64), "band 1..64"),
        ("progressive_ac_interleaved",
         _patch_sos(_patch_sos(p, 0, -3, 1), 0, -2, 1), "3 components"),
        ("dqt_16_bit", _patch(p, dqt, 0x10), "8-bit quantization"),
        ("frame_precision_12", _patch(p, sof, 12), "precision 12"),
        ("chroma_subsampled", _patch(p, sof + 7, 0x22), "4:4:4"),
        ("sos_before_sof", _without_sof(p), "SOS before SOF"),
        ("no_frame", _without_sof(p[:header_end]) + markers.EOI_BYTES, "no frame"),
    ]


MALFORMED = {name: (data, match) for name, data, match in _malformed_cases()}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_scan_rejected(name):
    data, match = MALFORMED[name]
    with pytest.raises(ValueError, match=match):
        decode_to_coeffs(data)


def test_malformed_scans_rejected_under_python_O():
    code = (
        "import sys\n"
        "from repro.jpeg import decode_to_coeffs\n"
        "from tests.test_jpeg_scans import _malformed_cases\n"
        "missed = []\n"
        "for name, data, _ in _malformed_cases():\n"
        "    try:\n"
        "        decode_to_coeffs(data)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    missed.append(name)\n"
        "print(' '.join(missed))\n"
        "sys.exit(1 if missed or __debug__ else 0)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=root, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
