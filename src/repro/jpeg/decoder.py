"""Unified JPEG decoder for our baseline (SOF0) and progressive (SOF2) files.

Decodes marker segments, then entropy-decodes every scan, baseline or
progressive, with the one loop ``_decode_scan`` into shared
per-component coefficient arrays. The SOF type fixes which scans are
legal (baseline: one band 0..63 with plain EOBs; progressive: a DC scan
or a one-component AC band with EOBn runs); anything else, and
successive approximation, raises ValueError. Truncated streams — the
PCR case, where only a prefix of the scans is present followed by
EOI — decode cleanly: missing scans simply leave their coefficient
bands at zero, and a scan cut mid-stream keeps whatever blocks
completed (matching "most JPEG decoders render the image with the
available subset of scans", paper Section 5).
"""
import struct

import numpy as np

from . import markers
from .codec import CoeffImage, Component, inverse
from .huffman import BitReader, HuffmanTable, extend
from .quant import UNZIGZAG


def _parse_dqt(payload: bytes, qtables: dict[int, np.ndarray]) -> None:
    i = 0
    while i < len(payload):
        pq, tq = payload[i] >> 4, payload[i] & 0xF
        if pq != 0:
            raise ValueError("only 8-bit quantization tables are supported")
        zz = np.frombuffer(payload[i + 1 : i + 65], dtype=np.uint8).astype(np.int32)
        qtables[tq] = zz[UNZIGZAG].reshape(8, 8)
        i += 65


def _parse_dht(payload: bytes, tables: dict[tuple[int, int], HuffmanTable]) -> None:
    i = 0
    while i < len(payload):
        tc, th = payload[i] >> 4, payload[i] & 0xF
        bits = list(payload[i + 1 : i + 17])
        n = sum(bits)
        values = list(payload[i + 17 : i + 17 + n])
        tables[(tc, th)] = HuffmanTable(bits=bits, values=values)
        i += 17 + n


class _Frame:
    def __init__(self, payload: bytes, sof: int):
        self.progressive = sof == markers.SOF2
        self.max_eobrun = markers.MAX_EOBRUN[sof]
        prec, self.height, self.width, nf = struct.unpack(">BHHB", payload[:6])
        if prec != 8:
            raise ValueError(f"sample precision {prec}; only 8-bit is supported")
        self.comp_ids: list[int] = []
        self.qtab_ids: list[int] = []
        for c in range(nf):
            cid, hv, tq = payload[6 + 3 * c : 9 + 3 * c]
            if hv != 0x11:
                raise ValueError("only 4:4:4 (1x1 sampling) is supported")
            self.comp_ids.append(cid)
            self.qtab_ids.append(tq)
        self.nby = -(-self.height // 8)
        self.nbx = -(-self.width // 8)
        self.n_blocks = self.nby * self.nbx
        self.coeffs = [
            np.zeros((self.n_blocks, 64), dtype=np.int32) for _ in range(nf)
        ]


def _check_scan(frame: _Frame, ns: int, ss: int, se: int, ahal: int) -> None:
    """Reject scan headers that the scan loop would decode to wrong coefficients."""
    if ahal:
        raise ValueError("successive approximation (Ah/Al != 0) is not supported")
    if not frame.progressive:
        if (ss, se) != (0, 63):
            raise ValueError(f"baseline scan covers band {ss}..{se}, not 0..63")
    elif ss > se or se > 63 or ss == 0 < se:
        raise ValueError(f"invalid progressive scan band {ss}..{se}")
    elif ss > 0 and ns != 1:
        raise ValueError(f"progressive AC scan has {ns} components, not 1")


def _decode_scan(r: BitReader, frame: _Frame, comps: list[int], ss: int, se: int,
                 dc_tabs: list[HuffmanTable], ac_tabs: list[HuffmanTable]) -> None:
    """Decode one scan into ``frame.coeffs``: the inverse of ``scan_ops``.

    Per block and scan component: the DC difference when ss == 0, then
    the AC band max(ss, 1)..se. An EOBn symbol ends this band and the
    same band of the next 2**n + extra - 1 blocks; a run longer than the
    frame type allows is rejected.
    """
    out = [frame.coeffs[c] for c in comps]
    preds = [0] * len(comps)
    lo, eobrun = max(ss, 1), 0
    for b in range(frame.n_blocks):
        for j, coeffs in enumerate(out):
            if ss == 0:
                size = r.read_symbol(dc_tabs[j])
                preds[j] += extend(r.read(size), size)
                coeffs[b, 0] = preds[j]
            if se == 0:
                continue
            if eobrun:
                eobrun -= 1
                continue
            blk, tab, k = coeffs[b], ac_tabs[j], lo
            while k <= se:
                sym = r.read_symbol(tab)
                run, size = sym >> 4, sym & 0xF
                if size == 0:
                    if run == 15:
                        k += 16
                        continue
                    eobrun = (1 << run) + r.read(run)
                    if eobrun > frame.max_eobrun:
                        raise ValueError(f"EOB run of {eobrun} blocks; this frame "
                                         f"type allows {frame.max_eobrun}")
                    eobrun -= 1
                    break
                k += run
                blk[k] = extend(r.read(size), size)
                k += 1


def decode_to_coeffs(data: bytes) -> CoeffImage:
    """Entropy-decode a JPEG byte stream to a quantized coefficient image.

    Raises ValueError for headers this decoder does not support and for
    malformed scans.
    """
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], HuffmanTable] = {}
    frame: _Frame | None = None
    for seg in markers.parse(data):
        if seg.marker == markers.DQT:
            _parse_dqt(seg.payload, qtables)
        elif seg.marker == markers.DHT:
            _parse_dht(seg.payload, htables)
        elif seg.marker in (markers.SOF0, markers.SOF2):
            frame = _Frame(seg.payload, seg.marker)
        elif seg.marker == markers.SOS:
            if frame is None:
                raise ValueError("SOS before SOF")
            p = seg.payload
            ns = p[0]
            ss, se, ahal = p[1 + 2 * ns : 4 + 2 * ns]
            _check_scan(frame, ns, ss, se, ahal)
            comps = [frame.comp_ids.index(p[1 + 2 * j]) for j in range(ns)]
            sel = [p[2 + 2 * j] for j in range(ns)]  # Td << 4 | Ta
            dc_tabs = [htables[(0, t >> 4)] for t in sel] if ss == 0 else []
            ac_tabs = [htables[(1, t & 0xF)] for t in sel] if se > 0 else []
            try:
                _decode_scan(BitReader(seg.entropy), frame, comps, ss, se,
                             dc_tabs, ac_tabs)
            except EOFError:
                pass  # truncated final scan: keep what decoded so far
    if frame is None:
        raise ValueError("no frame (SOF0/SOF2) found")
    comps = [
        Component(frame.comp_ids[c], frame.qtab_ids[c], frame.coeffs[c],
                  frame.nby, frame.nbx)
        for c in range(len(frame.coeffs))
    ]
    n_qt = max(frame.qtab_ids) + 1
    return CoeffImage(
        frame.height, frame.width, comps, [qtables[i] for i in range(n_qt)]
    )


def decode(data: bytes) -> np.ndarray:
    """Decode a JPEG byte stream (possibly a truncated prefix) to pixels."""
    return inverse(decode_to_coeffs(data))
