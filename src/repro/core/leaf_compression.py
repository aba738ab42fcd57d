"""Value-similarity compression of k-d tree leaf points (Figure 6).

A leaf's points are first converted to the reduced floating-point format
(IEEE fp16 by default).  For each coordinate, if the <sign, exponent> tuple is
identical across every point in the leaf, a single copy of it is stored and a
per-coordinate flag records the sharing.  The compressed structure layout
mirrors Figure 6 of the paper:

``[cX cY cZ] [mantissas, point-major, x/y/z interleaved] [one <s,e> copy per
compressed coordinate] [<s,e> tuples of every point for the remaining
coordinates, point-major]``

Compression is lossless with respect to the reduced 16-bit values: decoding a
compressed leaf reproduces exactly the fp16 bit patterns that were encoded.
The only information loss relative to the original cloud is the fp32 -> fp16
conversion, whose error the shell classifier bounds at search time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .floatfmt import FLOAT16, FloatFormat

__all__ = [
    "ZIPPTS_SLICE_BYTES",
    "MAX_POINTS_PER_LEAF",
    "CompressedLeaf",
    "compress_leaf",
    "compress_leaf_bits",
    "decompress_leaf",
    "decompress_leaf_bits",
    "compressed_size_bits",
]

#: The ZipPts buffer exchanges data in 128-bit slices (Section IV-B).
ZIPPTS_SLICE_BYTES = 16
#: The ZipPts buffer holds at most 16 points (PCL default is 15 per leaf).
MAX_POINTS_PER_LEAF = 16
#: Number of spatial coordinates.
N_COORDS = 3


@dataclass(frozen=True)
class CompressedLeaf:
    """The compressed representation of one leaf's points.

    Attributes
    ----------
    data:
        The packed bytes, zero-padded to a whole number of 128-bit slices.
    n_points:
        Number of points encoded.
    flags:
        Per-coordinate sharing flags ``(cX, cY, cZ)``; ``True`` means the
        coordinate's <sign, exponent> is stored once for the whole leaf.
    payload_bits:
        Exact number of meaningful bits before slice padding.
    fmt_name:
        Name of the reduced float format used for the coordinates.
    """

    data: bytes
    n_points: int
    flags: Tuple[bool, bool, bool]
    payload_bits: int
    fmt_name: str = FLOAT16.name

    @property
    def size_bytes(self) -> int:
        """Padded size in bytes (what is stored in ``cmprsd_strct_array``)."""
        return len(self.data)

    @property
    def payload_bytes(self) -> int:
        """Meaningful (unpadded) size in bytes, rounded up."""
        return (self.payload_bits + 7) // 8

    @property
    def n_slices(self) -> int:
        """Number of 128-bit ZipPts slices occupied."""
        return len(self.data) // ZIPPTS_SLICE_BYTES

    @property
    def n_coords_compressed(self) -> int:
        """How many of the three coordinates share their <sign, exponent>."""
        return sum(self.flags)

    def compression_ratio(self, baseline_bytes_per_point: int = 16) -> float:
        """Compressed bytes over baseline bytes for the same points."""
        baseline = self.n_points * baseline_bytes_per_point
        if baseline == 0:
            return 1.0
        return self.size_bytes / baseline


def _sign_exponent_bits(fmt: FloatFormat) -> int:
    return fmt.sign_bits + fmt.exponent_bits


def compressed_size_bits(n_points: int, flags: Sequence[bool],
                         fmt: FloatFormat = FLOAT16) -> int:
    """Exact payload size in bits of a compressed leaf (before padding)."""
    se_bits = _sign_exponent_bits(fmt)
    bits = N_COORDS  # compression flags
    bits += n_points * N_COORDS * fmt.mantissa_bits
    for flag in flags:
        bits += se_bits if flag else se_bits * n_points
    return bits


@functools.lru_cache(maxsize=None)
def _field_layout(fmt: FloatFormat, n_points: int,
                  flags: Tuple[bool, bool, bool]) -> Tuple[np.ndarray, int]:
    """Payload bit positions of every coordinate in the Figure 6 layout.

    Returns ``(positions, payload_bits)``.  ``positions[i, c, b]`` is the
    stream bit that holds bit ``b`` (MSB first) of point ``i``'s reduced
    coordinate ``c``: its <sign, exponent> bits first, then its mantissa.
    A shared <sign, exponent> maps every point to the single stored copy.
    """
    se_bits = _sign_exponent_bits(fmt)
    m_bits = fmt.mantissa_bits
    point_coord = np.arange(n_points)[:, None] * N_COORDS + np.arange(N_COORDS)
    positions = np.empty((n_points, N_COORDS, se_bits + m_bits), dtype=np.intp)
    # Mantissas, point-major, right after the three flag bits.
    mantissa_start = N_COORDS + point_coord * m_bits
    positions[:, :, se_bits:] = mantissa_start[..., None] + np.arange(m_bits)
    cursor = N_COORDS + n_points * N_COORDS * m_bits
    # One <sign, exponent> copy per compressed coordinate ...
    se_start = np.empty((n_points, N_COORDS), dtype=np.intp)
    for c in range(N_COORDS):
        if flags[c]:
            se_start[:, c] = cursor
            cursor += se_bits
    # ... then the remaining tuples, point-major over uncompressed coordinates.
    unshared = [c for c in range(N_COORDS) if not flags[c]]
    if unshared:
        order = np.arange(n_points)[:, None] * len(unshared) + np.arange(len(unshared))
        se_start[:, unshared] = cursor + order * se_bits
        cursor += n_points * len(unshared) * se_bits
    positions[:, :, :se_bits] = se_start[..., None] + np.arange(se_bits)
    positions.flags.writeable = False
    return positions, cursor


@functools.lru_cache(maxsize=None)
def _msb_weights(fmt: FloatFormat) -> np.ndarray:
    """Place values of a packed pattern's bits, most significant first."""
    weights = np.uint32(1) << np.arange(fmt.total_bits - 1, -1, -1, dtype=np.uint32)
    weights.flags.writeable = False
    return weights


def compress_leaf(points_fp32: np.ndarray, fmt: FloatFormat = FLOAT16) -> CompressedLeaf:
    """Compress a leaf's ``(N, 3)`` float32 points into the Figure 6 layout.

    Raises ``ValueError`` if the leaf holds more points than the ZipPts buffer
    supports (16) or is empty.
    """
    points_fp32 = np.asarray(points_fp32, dtype=np.float32)
    if points_fp32.ndim != 2 or points_fp32.shape[1] != N_COORDS:
        raise ValueError("leaf points must form an (N, 3) array")
    return compress_leaf_bits(fmt.encode_array(points_fp32), fmt)


def compress_leaf_bits(bits: np.ndarray, fmt: FloatFormat = FLOAT16) -> CompressedLeaf:
    """Pack a leaf's ``(N, 3)`` reduced-format bit patterns (Figure 6).

    The second half of :func:`compress_leaf`, for callers that encode many
    leaves' points in one :meth:`FloatFormat.encode_array` call.
    """
    n_points = bits.shape[0]
    if n_points == 0:
        raise ValueError("cannot compress an empty leaf")
    if n_points > MAX_POINTS_PER_LEAF:
        raise ValueError(
            f"leaf holds {n_points} points; the ZipPts buffer supports at most "
            f"{MAX_POINTS_PER_LEAF}"
        )

    se = bits >> fmt.mantissa_bits
    flags = tuple(bool(shared) for shared in (se == se[0]).all(axis=0))

    positions, payload_bits = _field_layout(fmt, n_points, flags)
    slice_bits = ZIPPTS_SLICE_BYTES * 8
    stream = np.zeros(-(-payload_bits // slice_bits) * slice_bits, dtype=np.uint8)
    stream[:N_COORDS] = flags
    # A shared <sign, exponent> is written once per point, always the same value.
    stream[positions] = (bits[..., None] & _msb_weights(fmt)) != 0
    return CompressedLeaf(
        data=np.packbits(stream).tobytes(),
        n_points=n_points,
        flags=flags,  # type: ignore[arg-type]
        payload_bits=payload_bits,
        fmt_name=fmt.name,
    )


def decompress_leaf(compressed: CompressedLeaf,
                    fmt: Optional[FloatFormat] = None) -> np.ndarray:
    """Decompress a leaf back into its reduced-precision ``(N, 3)`` values.

    The returned array is float64 holding exactly the values representable in
    the reduced format (i.e. the values the Bonsai functional unit operates
    on).  The fp16 bit patterns are reconstructed exactly.
    """
    fmt = fmt or FLOAT16
    return fmt.decode_array(decompress_leaf_bits(compressed, fmt))


def decompress_leaf_bits(compressed: CompressedLeaf,
                         fmt: Optional[FloatFormat] = None) -> np.ndarray:
    """Decompress a leaf into the raw reduced-format bit patterns ``(N, 3)``."""
    fmt = fmt or FLOAT16
    if fmt.name != compressed.fmt_name:
        raise ValueError(
            f"compressed leaf uses format {compressed.fmt_name!r}, "
            f"decompression requested with {fmt.name!r}"
        )
    stream = np.unpackbits(np.frombuffer(compressed.data, dtype=np.uint8))
    flags = tuple(bool(flag) for flag in stream[:N_COORDS])
    if flags != tuple(compressed.flags):
        raise ValueError("compression flags in the bit stream disagree with metadata")
    positions, payload_bits = _field_layout(fmt, compressed.n_points, flags)
    if payload_bits > stream.size:
        raise ValueError("attempt to read past the end of the bit stream")
    return stream[positions] @ _msb_weights(fmt)
