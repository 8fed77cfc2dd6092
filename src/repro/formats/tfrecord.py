"""TFRecord-style record format (the paper's strong baseline layout).

TFRecord framing per record: ``u64 length | u32 crc(length) | payload |
u32 crc(payload)``. TensorFlow uses masked CRC32-C; this container has
no crc32c implementation available, so we use zlib.crc32 with the same
masking — identical framing/overhead (the quantity the experiments
measure), different polynomial (documented substitution, DESIGN.md).

Payload is a minimal "example": ``i32 label | u32 jpeg_len | jpeg``.
"""
import struct
import zlib

# Bytes each image costs on disk beyond its JPEG: 16 B of record framing
# (u64 length + two u32 CRCs) and the 8 B example header (label + length).
RECORD_OVERHEAD = 16 + 8


def _masked_crc(data: bytes) -> int:
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF


def _example(label: int, jpeg: bytes) -> bytes:
    return struct.pack("<iI", label, len(jpeg)) + jpeg


def _parse_example(payload: bytes) -> tuple[int, bytes]:
    label, n = struct.unpack("<iI", payload[:8])
    return label, payload[8 : 8 + n]


def write_tfrecord(path: str, images: list[tuple[bytes, int]]) -> int:
    """Write (jpeg, label) pairs as one TFRecord file; returns bytes written."""
    total = 0
    with open(path, "wb") as f:
        for jpeg, label in images:
            payload = _example(label, jpeg)
            hdr = struct.pack("<Q", len(payload))
            rec = (
                hdr
                + struct.pack("<I", _masked_crc(hdr))
                + payload
                + struct.pack("<I", _masked_crc(payload))
            )
            f.write(rec)
            total += len(rec)
    return total


def read_tfrecord(path: str) -> list[tuple[int, bytes]]:
    """Read a TFRecord file; returns [(label, jpeg_bytes)]. Verifies CRCs."""
    out = []
    with open(path, "rb") as f:
        data = f.read()
    i = 0
    while i < len(data):
        hdr = data[i : i + 8]
        (length,) = struct.unpack("<Q", hdr)
        (crc_h,) = struct.unpack("<I", data[i + 8 : i + 12])
        assert crc_h == _masked_crc(hdr), "corrupt length crc"
        payload = data[i + 12 : i + 12 + length]
        (crc_p,) = struct.unpack("<I", data[i + 12 + length : i + 16 + length])
        assert crc_p == _masked_crc(payload), "corrupt payload crc"
        out.append(_parse_example(payload))
        i += 16 + length
    return out
