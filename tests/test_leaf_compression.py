"""Tests of the Figure 6 leaf compression / decompression codec."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstream import BitReader, BitWriter
from repro.core.floatfmt import BFLOAT16, FLOAT16, FLOAT24, FLOAT32
from repro.core.leaf_compression import (
    MAX_POINTS_PER_LEAF,
    ZIPPTS_SLICE_BYTES,
    CompressedLeaf,
    compress_leaf,
    compressed_size_bits,
    decompress_leaf,
)
from repro.core.leaf_compression import decompress_leaf_bits


def _nearby_leaf(rng, n_points=15, center=(20.0, -10.0, 1.0), spread=0.5):
    """Points clustered around a centre (the typical k-d tree leaf)."""
    center = np.asarray(center)
    return (center + rng.normal(0.0, spread, size=(n_points, 3))).astype(np.float32)


class TestCompressLeaf:
    def test_lossless_wrt_fp16(self, rng):
        points = _nearby_leaf(rng)
        compressed = compress_leaf(points)
        decoded = decompress_leaf(compressed)
        expected = points.astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(decoded, expected)

    def test_bit_patterns_roundtrip(self, rng):
        points = _nearby_leaf(rng, n_points=9)
        compressed = compress_leaf(points)
        bits = decompress_leaf_bits(compressed)
        expected = points.astype(np.float16).view(np.uint16).astype(np.uint32)
        np.testing.assert_array_equal(bits, expected)

    def test_flags_set_when_sign_exponent_shared(self, rng):
        # x in [16,32) and y in [-16,-8): both share sign+exponent; z spans binades.
        points = np.column_stack([
            rng.uniform(17.0, 31.0, 12),
            rng.uniform(-15.0, -9.0, 12),
            rng.uniform(0.3, 3.0, 12),
        ]).astype(np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags[0] is True
        assert compressed.flags[1] is True
        assert compressed.flags[2] is False

    def test_flags_clear_when_values_span_binades(self):
        points = np.array([[1.0, 1.0, 1.0], [100.0, -1.0, 3.0]], dtype=np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags == (False, False, False)

    def test_single_point_always_fully_shared(self):
        points = np.array([[3.0, -4.0, 0.5]], dtype=np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags == (True, True, True)

    def test_size_is_whole_slices(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng))
        assert compressed.size_bytes % ZIPPTS_SLICE_BYTES == 0
        assert compressed.n_slices == compressed.size_bytes // ZIPPTS_SLICE_BYTES

    def test_payload_bits_match_formula(self, rng):
        points = _nearby_leaf(rng, n_points=11)
        compressed = compress_leaf(points)
        assert compressed.payload_bits == compressed_size_bits(11, compressed.flags)

    def test_fifteen_point_leaf_bounded_by_six_slices(self, rng):
        """Even with no sharing, a full PCL leaf needs at most 6 x 128-bit slices."""
        compressed = compress_leaf(_nearby_leaf(rng, n_points=15))
        assert compressed.n_slices <= 6

    def test_fully_shared_fifteen_point_leaf_fits_four_slices(self):
        """With all three coordinates shared, a 15-point leaf fits 4 slices (59 B)."""
        rng = np.random.default_rng(17)
        points = (np.array([20.0, -10.0, 1.5])
                  + rng.uniform(-0.2, 0.2, size=(15, 3))).astype(np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags == (True, True, True)
        assert compressed.n_slices == 4

    def test_compression_beats_baseline_for_full_leaf(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng, n_points=15))
        assert compressed.compression_ratio(baseline_bytes_per_point=16) < 0.5

    def test_compression_ratio_empty_baseline(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng, n_points=2))
        assert compressed.compression_ratio(baseline_bytes_per_point=16) > 0.0

    def test_empty_leaf_rejected(self):
        with pytest.raises(ValueError):
            compress_leaf(np.empty((0, 3), dtype=np.float32))

    def test_oversized_leaf_rejected(self, rng):
        with pytest.raises(ValueError):
            compress_leaf(_nearby_leaf(rng, n_points=MAX_POINTS_PER_LEAF + 1))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            compress_leaf(np.zeros((4, 2), dtype=np.float32))

    def test_other_format(self, rng):
        points = _nearby_leaf(rng, n_points=6)
        compressed = compress_leaf(points, BFLOAT16)
        decoded = decompress_leaf(compressed, BFLOAT16)
        expected = BFLOAT16.quantize_array(points.astype(np.float64))
        np.testing.assert_array_equal(decoded, expected)

    def test_format_mismatch_on_decompress_rejected(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng, n_points=4))
        with pytest.raises(ValueError):
            decompress_leaf(compressed, BFLOAT16)


class TestCompressedSizeBits:
    def test_all_shared(self):
        # 3 flags + 15*3*10 mantissa + 3*6 shared sign/exp = 471 bits.
        assert compressed_size_bits(15, (True, True, True)) == 471

    def test_none_shared(self):
        # 3 + 450 + 15*3*6 = 723 bits.
        assert compressed_size_bits(15, (False, False, False)) == 723

    def test_sharing_monotonically_reduces_size(self):
        sizes = [
            compressed_size_bits(15, flags)
            for flags in [(False,) * 3, (True, False, False), (True, True, False), (True,) * 3]
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestPropertyRoundTrip:
    @given(
        n_points=st.integers(min_value=1, max_value=16),
        center=st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-3, max_value=6),
        ),
        spread=st.floats(min_value=0.01, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_always_matches_fp16_quantisation(self, n_points, center, spread, seed):
        rng = np.random.default_rng(seed)
        points = (np.asarray(center)
                  + rng.normal(0.0, spread, size=(n_points, 3))).astype(np.float32)
        compressed = compress_leaf(points)
        decoded = decompress_leaf(compressed)
        expected = points.astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(decoded, expected)
        assert compressed.n_points == n_points
        assert compressed.size_bytes % ZIPPTS_SLICE_BYTES == 0


# ----------------------------------------------------------------------
# The vectorised codec against a bit-at-a-time reference
# ----------------------------------------------------------------------
def _reference_compress(points: np.ndarray, fmt):
    """Figure 6 written one field at a time with :class:`BitWriter`."""
    bits = [[fmt.encode(float(v)) for v in row] for row in points]
    se = [[b >> fmt.mantissa_bits for b in row] for row in bits]
    flags = tuple(all(row[c] == se[0][c] for row in se) for c in range(3))
    se_bits = fmt.sign_bits + fmt.exponent_bits
    writer = BitWriter()
    for flag in flags:
        writer.write(int(flag), 1)
    for row in bits:
        for b in row:
            writer.write(fmt.mantissa(b), fmt.mantissa_bits)
    for c in range(3):
        if flags[c]:
            writer.write(se[0][c], se_bits)
    for row in se:
        for c in range(3):
            if not flags[c]:
                writer.write(row[c], se_bits)
    return writer.to_bytes(pad_to=ZIPPTS_SLICE_BYTES), writer.bit_length, flags


def _reference_decompress_bits(compressed: CompressedLeaf, fmt) -> np.ndarray:
    """Figure 6 read back one field at a time with :class:`BitReader`."""
    reader = BitReader(compressed.data)
    se_bits = fmt.sign_bits + fmt.exponent_bits
    flags = [reader.read(1) for _ in range(3)]
    mantissa = [[reader.read(fmt.mantissa_bits) for _ in range(3)]
                for _ in range(compressed.n_points)]
    shared = {c: reader.read(se_bits) for c in range(3) if flags[c]}
    return np.array([
        [((shared[c] if flags[c] else reader.read(se_bits)) << fmt.mantissa_bits)
         | mantissa[i][c] for c in range(3)]
        for i in range(compressed.n_points)], dtype=np.uint64)


#: Zeros, fp16/float24 subnormals, fp32 subnormals, values past the fp16 and
#: float24 range, the fp32 maximum (past bfloat16's) and infinities.
_EDGE_VALUES = [0.0, -0.0, 3e-8, -5.9604645e-08, 1e-6, 1e-40, -1.4e-45,
                65504.0, 65520.0, -70000.0, 1e9, 3.4028235e38, -math.inf, math.inf]

_coordinate = st.one_of(
    st.floats(width=32, allow_nan=False),
    st.sampled_from(_EDGE_VALUES),
)


@st.composite
def _leaves(draw):
    """``(N, 3)`` float32 leaves; each column either shares one sign and
    binade (so the reduced <s,e> is usually shared) or is arbitrary."""
    n_points = draw(st.integers(min_value=1, max_value=MAX_POINTS_PER_LEAF))
    columns = []
    for _ in range(3):
        if draw(st.booleans()):
            sign = draw(st.sampled_from([-1.0, 1.0]))
            exponent = draw(st.integers(min_value=-30, max_value=20))
            column = [sign * math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), exponent)
                      for _ in range(n_points)]
        else:
            column = draw(st.lists(_coordinate, min_size=n_points, max_size=n_points))
        columns.append(column)
    return np.array(columns, dtype=np.float32).T


class TestVectorisedCodecMatchesReference:
    @given(fmt=st.sampled_from([FLOAT16, BFLOAT16, FLOAT24, FLOAT32]), points=_leaves())
    @settings(max_examples=300, deadline=None)
    def test_codec_matches_bit_at_a_time_reference(self, fmt, points):
        data, payload_bits, flags = _reference_compress(points, fmt)
        compressed = compress_leaf(points, fmt)
        assert compressed.data == data
        assert compressed.payload_bits == payload_bits
        assert compressed.flags == flags

        scalar = np.array([[fmt.encode(float(v)) for v in row] for row in points],
                          dtype=np.uint64)
        np.testing.assert_array_equal(fmt.encode_array(points).astype(np.uint64), scalar)

        reference_bits = _reference_decompress_bits(compressed, fmt)
        np.testing.assert_array_equal(reference_bits, scalar)
        np.testing.assert_array_equal(
            decompress_leaf_bits(compressed, fmt).astype(np.uint64), reference_bits)
        reference_values = np.array(
            [[fmt.decode(int(b)) for b in row] for row in reference_bits])
        decoded = decompress_leaf(compressed, fmt)
        # Compare float64 bit patterns, so -0.0 and +0.0 differ.
        np.testing.assert_array_equal(decoded.view(np.uint64),
                                      reference_values.view(np.uint64))
