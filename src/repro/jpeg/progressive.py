"""Progressive JPEG encoder (SOF2, spectral-selection scan script).

The 10-scan script mirrors libjpeg's default in structure (DC first,
early luma AC, full chroma early, then widening luma AC bands) but uses
spectral selection only — see DESIGN.md §3 for why this substitution
preserves everything the paper relies on.

This module only chooses the scans and their Huffman table ids; the
entropy coding is ``baseline.scan_ops``, the same band coder the
baseline encoder uses, with end-of-band runs of up to 0x7FFF blocks.
All Huffman tables (per-class DC tables + four optimal AC tables shared
by AC scans with similar statistics) are emitted in the file header,
ahead of the first SOS. This keeps per-scan overhead to the ~10-byte SOS
marker, so a PCR's scan groups carry almost pure entropy data and the
progressive file stays at or below the baseline file's size on
realistic images (the paper's "PCRs are usually 5% smaller than
TFRecords" property). Any byte prefix ending at a scan boundary is
still self-contained, because every table lives in the always-read
header span.
"""
import numpy as np

from . import markers
from .baseline import encode_scans
from .codec import CoeffImage, forward

# (component index or None for interleaved-DC, Ss, Se)
SCRIPT_COLOR: list[tuple[int | None, int, int]] = [
    (None, 0, 0),  # 1: DC, all components
    (0, 1, 5),     # 2: Y AC 1-5
    (1, 1, 63),    # 3: Cb AC (full)
    (2, 1, 63),    # 4: Cr AC (full)
    (0, 6, 13),    # 5: Y AC 6-13
    (0, 14, 21),   # 6
    (0, 22, 30),   # 7
    (0, 31, 40),   # 8
    (0, 41, 51),   # 9
    (0, 52, 63),   # 10
]

SCRIPT_GRAY: list[tuple[int | None, int, int]] = [
    (None, 0, 0),
    (0, 1, 2),
    (0, 3, 5),
    (0, 6, 9),
    (0, 10, 14),
    (0, 15, 21),
    (0, 22, 30),
    (0, 31, 41),
    (0, 42, 52),
    (0, 53, 63),
]

N_SCANS = 10


def script_for(n_components: int) -> list[tuple[int | None, int, int]]:
    return SCRIPT_COLOR if n_components == 3 else SCRIPT_GRAY


def _ac_table_classes(script) -> dict[int, int]:
    """Assign each AC scan index one of JPEG's 4 AC table slots.

    Scans with similar symbol statistics share a slot: early luma,
    chroma, mid luma, high luma (for grayscale: four frequency tiers).
    """
    ac_scans = [si for si, (c, _, _) in enumerate(script) if c is not None]
    classes: dict[int, int] = {}
    chroma = [si for si in ac_scans if script[si][0] in (1, 2)]
    luma = [si for si in ac_scans if script[si][0] not in (1, 2)]
    for si in chroma:
        classes[si] = 1
    n = len(luma)
    for r, si in enumerate(luma):
        if r < max(1, n // 3):
            classes[si] = 0
        elif r < max(2, 2 * n // 3):
            classes[si] = 2
        else:
            classes[si] = 3
    return classes


def encode_progressive_from_coeffs(ci: CoeffImage) -> bytes:
    """Serialize a coefficient image as a 10-scan progressive JPEG."""
    nc = ci.n_components
    script = script_for(nc)
    # DC table ids: 0 = luma, 1 = chroma. AC scans share JPEG's four AC
    # table slots, clustered by scan statistics (early luma / chroma /
    # mid luma / high luma).
    ac_class = _ac_table_classes(script)
    scans = [
        ([(c, min(c, 1), 0) for c in range(nc)], ss, se) if comp is None
        else ([(comp, 0, ac_class[si])], ss, se)
        for si, (comp, ss, se) in enumerate(script)
    ]
    return encode_scans(ci, markers.SOF2, scans)


def encode_progressive(img: np.ndarray, quality: int = 90) -> bytes:
    """Encode an RGB/grayscale uint8 image as 10-scan progressive JPEG."""
    return encode_progressive_from_coeffs(forward(img, quality))
