"""The ``cmprsd_strct_array`` and per-leaf compressed references.

The paper's modified PCL keeps one extra byte array per tree in which the
compressed structures of all leaves are stored consecutively as they are
created during the tree build, and re-uses otherwise-unused leaf fields to
hold each leaf's (offset, length) into that array.  This module models both
pieces and provides ``compress_tree`` to run the whole build-time compression
pass over a k-d tree.

The array also owns the tree's :class:`DecodedLeafTable`: the functional
model decompresses each leaf at most once per tree, on its first visit, and
every later visit, by any searcher or thread, reads the decoded entry.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..kdtree.build import KDTree
from ..runtime.kernels import reduced_precision_max_delta
from .floatfmt import FLOAT16, FloatFormat
from .leaf_compression import CompressedLeaf, compress_leaf_bits, decompress_leaf

__all__ = [
    "CompressedRef",
    "CompressedStructArray",
    "DecodedLeaf",
    "DecodedLeafTable",
    "compress_tree",
    "compression_pass_count",
    "CompressionReport",
]

#: Number of whole-tree compression passes this process has run.  The
#: serving layer's "compress once, attach everywhere" claim is asserted
#: against this counter: the process that creates a
#: :class:`~repro.serve.store.SharedCloudStore` counts exactly one pass,
#: and every attaching client counts zero.
_COMPRESSION_PASSES = 0


#: Points per :meth:`FloatFormat.encode_array` call in :func:`compress_tree`.
_ENCODE_BLOCK = 8192


def compression_pass_count() -> int:
    """How many times :func:`compress_tree` ran in this process."""
    return _COMPRESSION_PASSES


@dataclass(frozen=True)
class CompressedRef:
    """Reference from a leaf into the compressed-structure array."""

    offset: int
    length: int
    n_points: int
    n_slices: int
    flags: tuple

    @property
    def end(self) -> int:
        """One-past-the-end byte offset of the compressed structure."""
        return self.offset + self.length


class DecodedLeaf(NamedTuple):
    """One decoded leaf: what the Bonsai functional unit computes on."""

    #: ``(N, 3)`` float64 reduced-precision coordinates (read-only).
    reduced: np.ndarray
    #: ``(N, 3)`` per-coordinate worst-case rounding error, Eq. 6 (read-only).
    max_delta: np.ndarray
    #: Reduced float format the leaf was decoded with.
    fmt_name: str


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class DecodedLeafTable:
    """A compressed tree's lazily filled table of decoded leaves.

    Base of the compressed-structure arrays (:class:`CompressedStructArray`
    and the shared-memory ``SharedStructArray``), which supply
    ``get(leaf_id)``.  :meth:`decoded` fills an entry through
    :func:`~repro.core.leaf_compression.decompress_leaf` on a leaf's first
    visit, so each leaf is decoded at most once per tree, even under
    concurrent searches from several threads.  Readers still charge the
    byte and slice accounting on every visit, as the hardware would.
    """

    def __init__(self) -> None:
        self._decoded: Dict[int, DecodedLeaf] = {}
        self._decode_lock = threading.Lock()
        self._lock_pid = os.getpid()

    def decoded(self, leaf_id: int, fmt: FloatFormat) -> DecodedLeaf:
        """The decoded entry of ``leaf_id``, decompressing it on first use.

        Raises ``ValueError`` if ``fmt`` is not the leaf's format.
        """
        entry = self._decoded.get(leaf_id)
        if entry is None:
            if self._lock_pid != os.getpid():
                # A forked worker inherits the lock in whatever state a
                # parent thread held it; only this process uses it now.
                self._decode_lock = threading.Lock()
                self._lock_pid = os.getpid()
            with self._decode_lock:
                entry = self._decoded.get(leaf_id)
                if entry is None:
                    reduced = decompress_leaf(self.get(leaf_id), fmt)
                    entry = DecodedLeaf(
                        _read_only(reduced),
                        _read_only(reduced_precision_max_delta(reduced, fmt)),
                        fmt.name)
                    self._decoded[leaf_id] = entry
        if entry.fmt_name != fmt.name:
            raise ValueError(
                f"compressed leaf uses format {entry.fmt_name!r}, "
                f"decompression requested with {fmt.name!r}"
            )
        return entry


class CompressedStructArray(DecodedLeafTable):
    """A growable byte array holding compressed leaf structures back to back."""

    def __init__(self, fmt: FloatFormat = FLOAT16):
        super().__init__()
        self.fmt = fmt
        self._data = bytearray()
        self._leaves: Dict[int, CompressedLeaf] = {}
        self._refs: Dict[int, CompressedRef] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def append(self, leaf_id: int, compressed: CompressedLeaf) -> CompressedRef:
        """Append ``compressed`` and return its reference.

        The append offset is always slice aligned because every compressed
        structure is padded to whole 128-bit slices.
        """
        if leaf_id in self._refs:
            raise ValueError(f"leaf {leaf_id} already has a compressed structure")
        offset = len(self._data)
        self._data.extend(compressed.data)
        ref = CompressedRef(
            offset=offset,
            length=compressed.size_bytes,
            n_points=compressed.n_points,
            n_slices=compressed.n_slices,
            flags=compressed.flags,
        )
        self._refs[leaf_id] = ref
        self._leaves[leaf_id] = compressed
        return ref

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._refs)

    @property
    def total_bytes(self) -> int:
        """Total size of the array in bytes."""
        return len(self._data)

    @property
    def data(self) -> bytes:
        """The raw concatenated compressed structures."""
        return bytes(self._data)

    def ref(self, leaf_id: int) -> CompressedRef:
        """The compressed reference of ``leaf_id``."""
        return self._refs[leaf_id]

    def get(self, leaf_id: int) -> CompressedLeaf:
        """The compressed structure of ``leaf_id``."""
        return self._leaves[leaf_id]

    def read(self, ref: CompressedRef) -> bytes:
        """Read the raw bytes referenced by ``ref`` (as the LDDCP loads would)."""
        return bytes(self._data[ref.offset:ref.end])


@dataclass
class CompressionReport:
    """Summary of a whole-tree compression pass."""

    n_leaves: int
    n_points: int
    baseline_bytes: int
    compressed_bytes: int
    leaves_fully_shared: int
    coords_shared: Dict[str, int]

    @property
    def compression_ratio(self) -> float:
        """Compressed size over baseline size (lower is better)."""
        if self.baseline_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.baseline_bytes

    @property
    def savings_fraction(self) -> float:
        """Fraction of bytes removed by compression."""
        return 1.0 - self.compression_ratio


def compress_tree(tree: KDTree, fmt: FloatFormat = FLOAT16,
                  array: Optional[CompressedStructArray] = None,
                  baseline_bytes_per_point: int = 16) -> CompressionReport:
    """Compress every leaf of ``tree`` into a :class:`CompressedStructArray`.

    Each leaf's ``compressed_ref`` attribute is populated, mirroring the
    paper's reuse of unused leaf fields to store the reference.  Returns a
    :class:`CompressionReport`; the array itself can be retrieved from any
    leaf's reference or passed in explicitly.
    """
    global _COMPRESSION_PASSES
    _COMPRESSION_PASSES += 1
    array = array if array is not None else CompressedStructArray(fmt)
    coords_shared = {"x": 0, "y": 0, "z": 0}
    fully_shared = 0
    total_points = 0
    # Encoded in blocks: the codec's int64 temporaries for a whole map
    # would briefly cost tens of MB.
    points = np.asarray(tree.points, dtype=np.float32)
    bits = np.concatenate([
        fmt.encode_array(block)
        for block in np.split(points, range(_ENCODE_BLOCK, len(points), _ENCODE_BLOCK))])
    for leaf in tree.leaves:
        compressed = compress_leaf_bits(bits[leaf.indices], fmt)
        ref = array.append(leaf.leaf_id, compressed)
        leaf.compressed_ref = ref
        total_points += leaf.n_points
        for name, flag in zip(("x", "y", "z"), compressed.flags):
            if flag:
                coords_shared[name] += 1
        if all(compressed.flags):
            fully_shared += 1
    # Stash the array on the tree so searches can find it without new APIs.
    tree.compressed_array = array  # type: ignore[attr-defined]
    return CompressionReport(
        n_leaves=tree.n_leaves,
        n_points=total_points,
        baseline_bytes=total_points * baseline_bytes_per_point,
        compressed_bytes=array.total_bytes,
        leaves_fully_shared=fully_shared,
        coords_shared=coords_shared,
    )
