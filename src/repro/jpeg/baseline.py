"""Baseline sequential JPEG encoder (SOF0), and the scan coder that the
baseline and progressive encoders share.

``scan_ops`` is the one entropy coder: it turns any scan, a spectral
band ss..se of one or more components, into ``(table, symbol,
extra_value, extra_bits)`` ops. A baseline file is one interleaved scan
over 0..63 whose end-of-band runs all have length 1, i.e. plain EOBs.
``encode_scans`` counts the ops per Huffman table, builds optimal tables
from the counts, then writes the ops out. This mirrors libjpeg's
``-optimize`` path.
"""
import struct
from collections import defaultdict

import numpy as np

from . import markers
from .codec import CoeffImage, forward
from .huffman import BitWriter, build_optimal_table, magnitude_bits
from .quant import ZIGZAG

# (Huffman table (class, id), symbol, extra value, extra bit count)
Ops = list[tuple[tuple[int, int], int, int, int]]
# A scan as its SOS header gives it: (component index, DC table id, AC
# table id) per scan component, then the zigzag band Ss..Se.
Scan = tuple[list[tuple[int, int, int]], int, int]


def scan_ops(components: list[tuple[np.ndarray, int, int]], ss: int, se: int,
             max_eobrun: int) -> Ops:
    """Ops of one scan over the zigzag band ss..se (T.81 F.1.2, G.1.2.2).

    ``components`` holds each scan component's (n_blocks, 64) coefficients
    and its DC and AC table ids. Blocks are visited in raster order, and
    within a block component by component. When ss == 0 each block starts
    with its DC difference. The AC band max(ss, 1)..se is coded as
    run/size symbols with ZRL. A band that ends in zeros adds one to the
    end-of-band run, which is coded as EOBn before the next nonzero band
    or once it reaches ``max_eobrun``.
    """
    ops: Ops = []
    eobrun = 0

    def flush(key: tuple[int, int]) -> None:
        nonlocal eobrun
        if eobrun:
            n = eobrun.bit_length() - 1
            ops.append((key, n << 4, eobrun - (1 << n), n))
            eobrun = 0

    lo = max(ss, 1)
    width = se + 1 - lo
    comps = []
    for coeffs, td, ta in components:
        dcs = coeffs[:, 0].tolist() if ss == 0 else []
        rows, ends = iter(()), []
        if width > 0:
            band = coeffs[:, lo : se + 1]
            nz = band != 0
            # One vectorised pass over all blocks finds each band's end
            # (one past its last nonzero, 0 if all zero); only the
            # nonzero bands are converted for the symbol loop.
            any_nz = nz.any(axis=1)
            ends = np.where(any_nz, width - np.argmax(nz[:, ::-1], axis=1), 0)
            ends = ends.tolist()
            rows = iter(band[any_nz].tolist())
        comps.append((dcs, rows, ends, (0, td), (1, ta)))
    preds = [0] * len(comps)
    for b in range(components[0][0].shape[0]):
        for j, (dcs, rows, ends, dc_key, ac_key) in enumerate(comps):
            if ss == 0:
                bits, size = magnitude_bits(dcs[b] - preds[j])
                ops.append((dc_key, size, bits, size))
                preds[j] = dcs[b]
            if width <= 0:
                continue
            end = ends[b]
            if end:
                flush(ac_key)
                run = 0
                for v in next(rows)[:end]:
                    if v == 0:
                        run += 1
                        continue
                    while run > 15:
                        ops.append((ac_key, 0xF0, 0, 0))
                        run -= 16
                    bits, size = magnitude_bits(v)
                    ops.append((ac_key, (run << 4) | size, bits, size))
                    run = 0
            if end < width:
                eobrun += 1
                if eobrun == max_eobrun:
                    flush(ac_key)
    # A run still open here is a single-component scan's: with several
    # components max_eobrun is 1 and every run is flushed at once.
    flush(comps[-1][4])
    return ops


def _dht_payload(table, tclass: int, tid: int) -> bytes:
    return bytes([tclass << 4 | tid]) + bytes(table.bits) + bytes(table.values)


def _header(ci: CoeffImage, sof_marker: int) -> bytes:
    out = markers.seg(markers.SOI)
    out += markers.seg(markers.APP0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    for tid, qt in enumerate(ci.qtables):
        zz = qt.reshape(-1)[ZIGZAG]
        out += markers.seg(markers.DQT, bytes([tid]) + bytes(int(v) for v in zz))
    sof = struct.pack(">BHHB", 8, ci.height, ci.width, ci.n_components)
    for comp in ci.components:
        sof += bytes([comp.comp_id, 0x11, comp.qtab_id])
    out += markers.seg(sof_marker, sof)
    return out


def encode_scans(ci: CoeffImage, sof: int, scans: list[Scan]) -> bytes:
    """Serialize ``ci`` as a JPEG with frame type ``sof`` and these scans.

    One optimal Huffman table is built for each (class, id) the scans
    use. SOF0 writes one DHT segment per table id; SOF2 puts every table
    in a single DHT segment ahead of the first SOS, so each scan adds
    only its ~10-byte SOS marker and any prefix of scans is decodable.
    """
    ops = [
        scan_ops([(ci.components[c].coeffs, td, ta) for c, td, ta in comps],
                 ss, se, markers.MAX_EOBRUN[sof])
        for comps, ss, se in scans
    ]
    freqs: dict[tuple[int, int], np.ndarray] = defaultdict(
        lambda: np.zeros(256, dtype=np.int64)
    )
    for scan in ops:
        for key, sym, _, _ in scan:
            freqs[key][sym] += 1
    tables = {key: build_optimal_table(f) for key, f in freqs.items()}

    out = _header(ci, sof)
    if sof == markers.SOF0:
        groups = [[(0, t), (1, t)] for t in sorted({t for _, t in tables})]
    else:
        groups = [sorted(tables)]
    for keys in groups:
        out += markers.seg(
            markers.DHT, b"".join(_dht_payload(tables[k], *k) for k in keys)
        )
    for (comps, ss, se), scan in zip(scans, ops):
        sos = bytes([len(comps)])
        for c, td, ta in comps:
            sos += bytes([ci.components[c].comp_id, td << 4 | ta])
        out += markers.seg(markers.SOS, sos + bytes([ss, se, 0]))
        w = BitWriter()
        for key, sym, bits, size in scan:
            w.write_code(tables[key], sym)
            w.write(bits, size)
        out += w.getvalue()
    out += markers.seg(markers.EOI)
    return out


def encode_baseline_from_coeffs(ci: CoeffImage) -> bytes:
    """Serialize a coefficient image as baseline sequential JPEG."""
    # Table ids: 0 = luma, 1 = chroma (components 2,3 share id 1).
    comps = [(c, min(c, 1), min(c, 1)) for c in range(ci.n_components)]
    return encode_scans(ci, markers.SOF0, [(comps, 0, 63)])


def encode_baseline(img: np.ndarray, quality: int = 90) -> bytes:
    """Encode an RGB/grayscale uint8 image as baseline sequential JPEG."""
    return encode_baseline_from_coeffs(forward(img, quality))
