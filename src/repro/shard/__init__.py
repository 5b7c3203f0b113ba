"""Sharded out-of-core execution for ``.csrg`` graphs.

The LOCAL model's synchronous rounds make cross-shard communication a
natural bulk-synchronous exchange: partition the node ids into
contiguous ranges, give every shard its own CSR slice plus a
halo/boundary sideband, run each round of the algorithm's round program
locally per shard, and merge neighbor state across shards once per
round through a coordinator. The programs are the kernels themselves
(:mod:`repro.kernels.program`): an unsharded kernel run is their
one-shard case, so a sharded result is bit-identical to the unsharded
engines by construction, while each worker only ever touches its own
memory-mapped slice — peak per-process RSS is bounded by the shard
size, not the graph size.

Layering:

* :mod:`repro.kernels.program` (below this package) — the
  :class:`~repro.kernels.program.Shard` slice and the round-program
  protocol; :mod:`repro.kernels.linial` and :mod:`repro.kernels.peeling`
  define the programs, found through :func:`~repro.kernels.get_program`.
* :mod:`repro.shard.partition` — the contiguous id-range partitioner,
  the ``.csrs`` shard file format (strictly size-validated at open, like
  ``.csrg``), the bundle manifest, and :class:`ShardBundle`.
* :mod:`repro.shard.runtime` — the BSP coordinator, the persistent
  per-shard worker pool (processes or inline), checkpoint/resume, and
  the :func:`sharding` scope that
  :func:`~repro.local.network.run_on_graph` consults.

Algorithms without a round program (centralized baselines, runs on
graphs other than the partitioned parent, inputs a program declines)
transparently fall through to the normal engine path; every such
fallthrough is disclosed through the ``shard.fallback`` counter, so a
campaign can never silently claim sharded execution it did not get.
"""

from repro.kernels import get_program, program_names
from repro.shard.partition import (
    ShardBundle,
    load_shard,
    partition,
)
from repro.shard.runtime import ShardingScope, sharding

__all__ = [
    "ShardBundle",
    "ShardingScope",
    "get_program",
    "load_shard",
    "partition",
    "program_names",
    "sharding",
]
