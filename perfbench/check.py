"""Serial replay of the per-record work, and the output check built on it.

The replay repeats, in one process, the public calls a Spark task makes
for one record: the read path of ``repro.core.dataset.load_features``
and the write path of ``repro.core.dataset.build_pcr_dataset``. It is
the reference the Spark outputs are checked against, and, run with a
``Tracer``, the source of the per-layer timings.

The check holds PCR images to their TFRecord baseline twins:

* at scan group g, the quantized coefficients of the (component, band)
  pairs in the first g entries of the progressive scan script equal the
  baseline's, and every other coefficient is zero (at g = 10 this is
  the lossless-transcode property: all coefficients are bit-identical);
* labels agree between the PCR and its twin.

Functions taking paths run in worker processes; they return plain data.
"""
import os
import shutil

import numpy as np

from spans import Tracer, call, measure_reads

from repro import synth_images
from repro.core import pcr
from repro.formats import tfrecord
from repro.jpeg import (
    baseline_to_progressive,
    decode_to_coeffs,
    encode_baseline,
)
from repro.jpeg.codec import inverse
from repro.jpeg.progressive import encode_progressive_from_coeffs, script_for
from repro.train.features import extract_features


def band_masks(n_components: int, g: int) -> list[np.ndarray]:
    """Per component, the zigzag indices scan groups 1..g carry."""
    masks = [np.zeros(64, dtype=bool) for _ in range(n_components)]
    for comp, ss, se in script_for(n_components)[:g]:
        for c in range(n_components) if comp is None else [comp]:
            masks[c][ss : se + 1] = True
    return masks


def coeffs_match(ci, ref, g: int) -> bool:
    """``ci`` (decoded at scan group g) agrees with full-fidelity ``ref``."""
    if (ci.height, ci.width, ci.n_components) != (
        ref.height, ref.width, ref.n_components
    ):
        return False
    if len(ci.qtables) != len(ref.qtables) or not all(
        np.array_equal(a, b) for a, b in zip(ci.qtables, ref.qtables)
    ):
        return False
    for comp, rcomp, m in zip(ci.components, ref.components,
                              band_masks(ci.n_components, g)):
        a, b = comp.coeffs, rcomp.coeffs
        if a.shape != b.shape or not np.array_equal(a[:, m], b[:, m]):
            return False
        if a[:, ~m].any():
            return False
    return True


def replay_read_record(path: str, g: int, tracer: Tracer | None = None):
    """The read-side work of one Spark task for one record.

    Returns (info, [(label, jpeg, coeffs, features)], bytes read, read
    syscalls). Bytes and syscalls are measured around ``read_pcr`` only.
    """
    info = call(tracer, "pcr.read_index", pcr.read_index, path)
    items, nbytes, nsys = call(tracer, "pcr.read_pcr", measure_reads,
                               pcr.read_pcr, path, g)
    out = []
    for label, jpeg in items:
        ci = call(tracer, "jpeg.decode_to_coeffs", decode_to_coeffs, jpeg)
        img = call(tracer, "jpeg.inverse", inverse, ci)
        feats = call(tracer, "features.extract_features", extract_features, img)
        out.append((label, jpeg, ci, feats))
    return info, out, nbytes, nsys


def replay_encode_record(spec, idxs: list[int], rec_path: str,
                         tfrec_path: str, tracer: Tracer | None = None) -> int:
    """The write-side work of one Spark encode task; returns TFRecord bytes."""
    images, labels = [], []
    for i in idxs:
        img, lab = call(tracer, "synth.generate_image",
                        synth_images.generate_image, spec, i)
        images.append(img)
        labels.append(lab["label"])
    baselines = [call(tracer, "jpeg.encode_baseline", encode_baseline, img,
                      spec.quality) for img in images]
    progressives = [call(tracer, "jpeg.baseline_to_progressive",
                         baseline_to_progressive, b) for b in baselines]
    call(tracer, "pcr.write_pcr", pcr.write_pcr, rec_path,
         list(zip(progressives, labels)))
    return call(tracer, "tfrecord.write_tfrecord", tfrecord.write_tfrecord,
                tfrec_path, list(zip(baselines, labels)))


def check_record(pcr_path: str, tfrec_path: str, g: int) -> dict:
    """Replay one record at scan group g and check it against its twin.

    Never raises for a damaged record: an image whose read, decode or
    comparison fails is listed in ``failed`` (all of them when the
    record cannot be read at all).
    """
    res = {"record": pcr_path, "n": 0, "failed": [], "error": None,
           "labels": [], "features": [], "bytes_read": 0, "syscalls": 0,
           "prefix_bytes": 0}
    try:
        twins = tfrecord.read_tfrecord(tfrec_path)
        res["n"] = len(twins)
        info, items, res["bytes_read"], res["syscalls"] = replay_read_record(
            pcr_path, g
        )
        res["prefix_bytes"] = info.prefix_bytes(min(g, info.n_scan_groups))
    except Exception as e:  # a damaged record fails all of its images
        res["error"] = f"{type(e).__name__}: {e}"
        res["failed"] = list(range(res["n"]))
        return res
    res["n"] = max(len(twins), len(items))
    feats = []
    for pos in range(res["n"]):
        try:
            label, _, ci, f = items[pos]
            tlabel, tjpeg = twins[pos]
            ok = label == tlabel and coeffs_match(ci, decode_to_coeffs(tjpeg), g)
        except Exception as e:  # counted per image, reported once
            res["error"] = res["error"] or f"{type(e).__name__}: {e}"
            ok = False
        if not ok:
            res["failed"].append(pos)
        if pos < len(items):
            res["labels"].append(int(items[pos][0]))
            feats.append(items[pos][3])
    res["features"] = np.array(feats)
    return res


def selftest(tmp: str) -> list[str]:
    """Show the check catches a flipped coefficient and a truncated record.

    Builds a 3-image record from public calls, then a copy whose image 1
    has one DC coefficient flipped, and a copy cut inside scan group 1.
    Returns the problems found (empty when the check works).
    """
    spec = synth_images.DatasetSpec("perfbench_selftest", 3, 32, 3, 90)
    os.makedirs(tmp, exist_ok=True)
    tf_path = os.path.join(tmp, "twin.tfrec")
    good = os.path.join(tmp, "good.pcr")
    replay_encode_record(spec, [0, 1, 2], good, tf_path)

    flipped = os.path.join(tmp, "flipped.pcr")
    twins = tfrecord.read_tfrecord(tf_path)
    progs = []
    for k, (label, jpeg) in enumerate(twins):
        ci = decode_to_coeffs(jpeg)
        if k == 1:
            ci.components[0].coeffs[0, 0] ^= 1
        progs.append((encode_progressive_from_coeffs(ci), label))
    pcr.write_pcr(flipped, progs)

    truncated = os.path.join(tmp, "truncated.pcr")
    info = pcr.read_index(good)
    with open(good, "rb") as f:
        data = f.read()
    scan1_start = info.group_end[0] - sum(info.scan_lens[0])
    with open(truncated, "wb") as f:
        f.write(data[: (scan1_start + info.group_end[0]) // 2])

    problems = []
    for g in (1, 10):
        r = check_record(good, tf_path, g)
        if r["failed"] or r["n"] != 3:
            problems.append(f"intact record failed at scan {g}: images "
                            f"{r['failed']} ({r['error']})")
        r = check_record(flipped, tf_path, g)
        if r["failed"] != [1]:
            problems.append(f"flipped coefficient not caught at scan {g}")
        r = check_record(truncated, tf_path, g)
        if not r["failed"]:
            problems.append(f"truncated record not caught at scan {g}")
    a, b = ("r", 0), ("r", 1)
    replay = {a: (0, np.zeros(3)), b: (1, np.ones(3))}
    rows = [(a, 0, np.zeros(3)), (b, 1, np.ones(3))]
    flip = [(a, 0, np.zeros(3)), (b, 1, np.nextafter(np.ones(3), 2.0))]
    cases = {"intact": (rows, set(), 0), "changed feature bit": (flip, set(), 1),
             "missing row": (rows[:1], set(), 1),
             "duplicated row": (rows + rows[1:], set(), 1),
             "bad coefficients": (rows, {b}, 1)}
    for what, (case, bad, want) in cases.items():
        if epoch_failures(case, replay, bad) != want:
            problems.append(f"feature check miscounts: {what}")
    shutil.rmtree(tmp, ignore_errors=True)
    return problems


def epoch_failures(rows, replay: dict, bad: set) -> int:
    """Images of one Spark epoch that fail the check.

    ``rows``: the epoch's ((record, pos), label, features). ``replay``:
    (label, features) per key from the serial replay, i.e. every image
    that must be delivered. ``bad``: keys whose coefficients failed. An
    image fails when it is in ``bad``, missing, or its label or any bit of
    its features differs from the replay's; a duplicated or unknown row
    also counts.
    """
    ok: dict = {}
    failed = 0
    for key, label, feats in rows:
        if key in ok or key not in replay:
            failed += 1
            continue
        want_label, want = replay[key]
        ok[key] = (key not in bad and label == want_label
                   and np.array_equal(feats, want))
    return failed + sum(1 for key in replay if not ok.get(key, False))
