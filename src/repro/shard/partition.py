"""Contiguous id-range partitioning and the ``.csrs`` shard format.

A bundle is a directory: one ``manifest.json`` plus one ``.csrs`` file
per shard. Shard ``s`` owns the dense global ids ``[lo, hi)`` and
stores:

* ``indptr`` — the parent's ``indptr[lo:hi+1]`` rebased to 0,
* ``indices`` — the owned rows' neighbor ids remapped to *local* ids:
  owned neighbors ``g`` become ``g - lo``; foreign neighbors become
  ``n_own + rank`` where ``rank`` indexes the sorted ``halo`` sideband,
* ``halo`` — the sorted global ids of every foreign neighbor,
* ``boundary`` — the sorted local ids of owned nodes with at least one
  foreign neighbor (the nodes whose state must be published each round).

Binary layout (version 1, little-endian)::

    0   magic      8   b"CSRSHARD"
    8   version    4   u32 = 1
    12  shard_id   4   u32
    16  num_shards 4   u32
    20  reserved   4   zero
    24  lo         8   u64 first owned global id
    32  n_own      8   u64 owned node count
    40  n_halo     8   u64 halo node count
    48  e_local    8   u64 directed edge count (len(indices))
    56  n_boundary 8   u64 boundary node count
    64  digest     32  parent graph's sha256 content address
    96  indptr     (n_own+1) * 8
    ..  indices    e_local * 8
    ..  halo       n_halo * 8
    ..  boundary   n_boundary * 8

An opened file is a :class:`~repro.kernels.program.Shard`, the local
CSR slice every round program runs on.

Like ``.csrg``, opens are strict: the file size must equal the header's
promised extents exactly, and the arrays pass light structural
validation even when memory-mapped, so a truncated or mis-written shard
fails fast at open instead of faulting mid-round in a worker.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from repro.errors import InvalidParameterError
from repro.graphcore import CompactGraph
from repro.kernels.program import Shard

PathLike = Union[str, Path]

MAGIC = b"CSRSHARD"
SHARD_VERSION = 1
_HEADER = struct.Struct("<8sIIII QQQQQ 32s")
HEADER_SIZE = _HEADER.size  # 96

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-shard-bundle"


def _shard_filename(shard_id: int) -> str:
    return f"shard-{shard_id:04d}.csrs"


def _range_cuts(indptr: np.ndarray, n: int, num_shards: int) -> List[int]:
    """Contiguous range boundaries balanced by directed-edge count: shard
    ``s`` owns ``[cuts[s], cuts[s+1])``. Every shard owns at least one
    node (``num_shards <= n`` is validated by the caller), so degenerate
    degree distributions shift the edge balance rather than emptying a
    shard."""
    total = int(indptr[-1])
    cuts = [0]
    for k in range(1, num_shards):
        target = total * k / num_shards
        cut = int(np.searchsorted(indptr, target, side="left"))
        cut = max(cut, cuts[-1] + 1)  # non-empty shards
        cut = min(cut, n - (num_shards - k))  # leave room for the rest
        cuts.append(cut)
    cuts.append(n)
    return cuts


def partition(
    graph: CompactGraph, num_shards: int, out_dir: PathLike
) -> "ShardBundle":
    """Partition ``graph`` into ``num_shards`` contiguous id ranges and
    write the bundle (manifest + one ``.csrs`` per shard) into
    ``out_dir``. Returns the opened :class:`ShardBundle`.

    ``graph`` may come from any ingestion path — ``.csrg`` (typically
    memory-mapped), :func:`~repro.graphcore.read_metis`, or
    :func:`~repro.graphcore.read_edge_list` — anything already in CSR
    form partitions without an intermediate conversion.
    """
    if not isinstance(graph, CompactGraph):
        raise InvalidParameterError(
            "partition needs a CompactGraph (load the .csrg first)"
        )
    n = graph.n
    if num_shards < 1:
        raise InvalidParameterError("num_shards must be >= 1")
    if n and num_shards > n:
        raise InvalidParameterError(
            f"cannot cut {n} nodes into {num_shards} non-empty shards"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = graph.digest()
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = np.asarray(graph.indices, dtype=np.int64)
    cuts = _range_cuts(indptr, n, num_shards) if n else [0] * (num_shards + 1)
    ranges = []
    for shard_id in range(num_shards):
        lo, hi = cuts[shard_id], cuts[shard_id + 1]
        n_own = hi - lo
        local_indptr = (indptr[lo : hi + 1] - indptr[lo]).astype(np.int64)
        row = indices[int(indptr[lo]) : int(indptr[hi])].astype(np.int64)
        own = (row >= lo) & (row < hi)
        halo = np.unique(row[~own])
        local = np.where(
            own, row - lo, n_own + np.searchsorted(halo, row)
        ).astype(np.int64)
        src = np.repeat(
            np.arange(n_own, dtype=np.int64), np.diff(local_indptr)
        )
        boundary = np.unique(src[~own])
        header = _HEADER.pack(
            MAGIC,
            SHARD_VERSION,
            shard_id,
            num_shards,
            0,
            lo,
            n_own,
            int(halo.size),
            int(local.size),
            int(boundary.size),
            bytes.fromhex(digest),
        )
        with open(out / _shard_filename(shard_id), "wb") as handle:
            handle.write(header)
            handle.write(np.ascontiguousarray(local_indptr).tobytes())
            handle.write(np.ascontiguousarray(local).tobytes())
            handle.write(np.ascontiguousarray(halo).tobytes())
            handle.write(np.ascontiguousarray(boundary).tobytes())
        ranges.append([int(lo), int(hi)])
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": SHARD_VERSION,
        "parent_digest": digest,
        "n": int(n),
        "m": int(graph.m),
        "max_degree": int(graph.max_degree),
        "num_shards": num_shards,
        "ranges": ranges,
    }
    tmp = out / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    tmp.replace(out / MANIFEST_NAME)
    return ShardBundle.open(out)


def load_shard(path: PathLike, expect: Dict[str, Any] = None) -> Shard:
    """Open one ``.csrs`` file memory-mapped, with the same strictness as
    :func:`repro.graphcore.load`: exact file-size check against the
    header extents, then light structural validation of every array.
    ``expect`` (a bundle manifest) cross-checks digest and shard count.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        raw = handle.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise InvalidParameterError(f"{path}: truncated shard header")
    (
        magic,
        version,
        shard_id,
        num_shards,
        _reserved,
        lo,
        n_own,
        n_halo,
        e_local,
        n_boundary,
        digest,
    ) = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise InvalidParameterError(f"{path}: not a csrs shard (bad magic)")
    if version != SHARD_VERSION:
        raise InvalidParameterError(
            f"{path}: unsupported shard version {version} (this build reads "
            f"version {SHARD_VERSION})"
        )
    expected = HEADER_SIZE + 8 * ((n_own + 1) + e_local + n_halo + n_boundary)
    actual = path.stat().st_size
    if actual != expected:
        raise InvalidParameterError(
            f"{path}: file is {actual} bytes, header promises {expected}"
        )
    offset = HEADER_SIZE

    def _mapped(count: int) -> np.ndarray:
        nonlocal offset
        arr = np.memmap(path, dtype=np.int64, mode="r", offset=offset, shape=(count,))
        offset += 8 * count
        return arr

    indptr = _mapped(n_own + 1)
    indices = _mapped(e_local)
    halo = _mapped(n_halo)
    boundary = _mapped(n_boundary)
    if indptr[0] != 0 or indptr[-1] != e_local or np.any(np.diff(indptr) < 0):
        raise InvalidParameterError(f"{path}: corrupt shard indptr")
    n_local = n_own + n_halo
    if e_local and (indices.min() < 0 or indices.max() >= n_local):
        raise InvalidParameterError(f"{path}: shard indices out of local range")
    if n_halo and (np.any(np.diff(halo) <= 0) or halo.min() < 0):
        raise InvalidParameterError(f"{path}: halo sideband not sorted-unique")
    if n_halo and np.any((halo >= lo) & (halo < lo + n_own)):
        raise InvalidParameterError(f"{path}: halo sideband overlaps owned range")
    if n_boundary and (
        np.any(np.diff(boundary) <= 0)
        or boundary.min() < 0
        or boundary.max() >= n_own
    ):
        raise InvalidParameterError(f"{path}: boundary sideband out of range")
    shard = Shard(
        shard_id=shard_id,
        num_shards=num_shards,
        lo=lo,
        n_own=n_own,
        n_halo=n_halo,
        parent_digest=digest.hex(),
        indptr=indptr,
        indices=indices,
        halo=halo,
        boundary=boundary,
    )
    if expect is not None:
        if shard.parent_digest != expect["parent_digest"]:
            raise InvalidParameterError(
                f"{path}: shard belongs to a different parent graph "
                f"(digest {shard.parent_digest[:12]} != manifest "
                f"{expect['parent_digest'][:12]})"
            )
        if shard.num_shards != expect["num_shards"]:
            raise InvalidParameterError(
                f"{path}: shard count mismatch with manifest"
            )
        want_lo, want_hi = expect["ranges"][shard_id]
        if shard.lo != want_lo or shard.hi != want_hi:
            raise InvalidParameterError(
                f"{path}: owned range [{shard.lo}, {shard.hi}) disagrees "
                f"with manifest [{want_lo}, {want_hi})"
            )
    return shard


class ShardBundle:
    """An opened bundle: the manifest plus lazily memory-mapped shards."""

    def __init__(self, directory: Path, manifest: Dict[str, Any]):
        self.directory = Path(directory)
        self.manifest = manifest
        self._shards: Dict[int, Shard] = {}

    @classmethod
    def open(cls, directory: PathLike) -> "ShardBundle":
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise InvalidParameterError(
                f"{directory}: not a shard bundle (no {MANIFEST_NAME})"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != MANIFEST_FORMAT:
            raise InvalidParameterError(
                f"{manifest_path}: unknown manifest format "
                f"{manifest.get('format')!r}"
            )
        if manifest.get("version") != SHARD_VERSION:
            raise InvalidParameterError(
                f"{manifest_path}: unsupported bundle version "
                f"{manifest.get('version')}"
            )
        if len(manifest["ranges"]) != manifest["num_shards"]:
            raise InvalidParameterError(
                f"{manifest_path}: {manifest['num_shards']} shards declared "
                f"but {len(manifest['ranges'])} ranges listed"
            )
        for path in (
            directory / _shard_filename(s) for s in range(manifest["num_shards"])
        ):
            if not path.exists():
                raise InvalidParameterError(f"{directory}: missing {path.name}")
        return cls(directory, manifest)

    @property
    def num_shards(self) -> int:
        return int(self.manifest["num_shards"])

    @property
    def parent_digest(self) -> str:
        return self.manifest["parent_digest"]

    def shard_path(self, shard_id: int) -> Path:
        return self.directory / _shard_filename(shard_id)

    def shard(self, shard_id: int) -> Shard:
        """Open (and cache) shard ``shard_id``, validated against the
        manifest."""
        if shard_id not in self._shards:
            if not 0 <= shard_id < self.num_shards:
                raise InvalidParameterError(
                    f"shard {shard_id} outside 0..{self.num_shards - 1}"
                )
            self._shards[shard_id] = load_shard(
                self.shard_path(shard_id), expect=self.manifest
            )
        return self._shards[shard_id]

    def boundary_table(self) -> Dict[str, Any]:
        """The coordinator's exchange maps, built once per bundle:

        * ``boundary_global`` — every boundary node's global id, in shard
          order (globally sorted because ranges are contiguous),
        * ``offsets`` — per-shard slice boundaries into that table,
        * ``halo_sources[s]`` — positions in the table holding shard
          ``s``'s halo values (each halo node of ``s`` is by construction
          a boundary node of its owner — validated here).
        """
        boundary_parts = []
        offsets = [0]
        for s in range(self.num_shards):
            shard = self.shard(s)
            boundary_parts.append(np.asarray(shard.boundary) + shard.lo)
            offsets.append(offsets[-1] + int(shard.boundary.size))
        boundary_global = (
            np.concatenate(boundary_parts)
            if boundary_parts
            else np.empty(0, dtype=np.int64)
        )
        halo_sources = []
        for s in range(self.num_shards):
            halo = np.asarray(self.shard(s).halo)
            pos = np.searchsorted(boundary_global, halo)
            if halo.size and (
                pos.max(initial=0) >= boundary_global.size
                or np.any(boundary_global[pos] != halo)
            ):
                raise InvalidParameterError(
                    f"bundle {self.directory}: shard {s} references halo "
                    "nodes that are not boundary nodes of their owner — "
                    "bundle is corrupt"
                )
            halo_sources.append(pos)
        return {
            "boundary_global": boundary_global,
            "offsets": offsets,
            "halo_sources": halo_sources,
        }
