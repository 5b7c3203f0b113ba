"""Batched numpy round kernels over :class:`~repro.graphcore.CompactGraph`.

The per-node simulators (:class:`~repro.local.network.Network` and the
vector engine's event-driven loop) dispatch a Python ``step`` per node per
round. For the bounded-round LOCAL procedures this library reproduces —
Linial's cover-free relabeling, Cole–Vishkin bit reduction, the iterated
color reductions, H-partition peeling — every node of a round applies the
*same* pure function of (own state, neighbor states), which makes the
whole round one fused array operation over the CSR ``indptr``/``indices``
arrays. A kernel executes the entire run that way: one ``colors``/state
vector per graph, one pass of numpy segment ops per synchronous round,
zero per-node Python dispatch.

Contract (the reason kernels may exist at all):

* **Bit-for-bit parity.** A kernel returns the *exact*
  :class:`~repro.local.network.RunResult` the reference scheduler would
  produce — outputs, round count, total messages, and the per-round
  ``round_messages`` profile. The compact-parity suite enforces this for
  every registered kernel over the full workload catalogue.
* **Decline, don't approximate.** A kernel that cannot reproduce the
  per-node semantics for a given input (exotic extras, inputs that would
  raise mid-run in node order, palettes outside its vectorized range)
  raises :class:`KernelUnsupported`; the engine falls back to the
  per-node path, which remains the semantic authority, and discloses
  the decline and its reason through the ``kernel.fallback`` counter.
* **Engines opt in.** Only :class:`~repro.engine.vector.VectorEngine`
  consults this registry (and only for crash-free, untraced,
  bandwidth-untracked runs), on ``CompactGraph`` and networkx inputs
  alike. The reference engine never does — it *is* the baseline kernels
  are measured against.
* **Node-keyed extras are declared.** Kernels index per-node tables by
  dense id, so each :func:`register_kernel` call names the extras keyed
  by node (and those whose values are node ids too, like Cole–Vishkin's
  ``parent``). :func:`dense_extras` relabels exactly those for a
  networkx input the engine interned to dense ids.

The round-synchronous kernels (``linial``, ``defective-refinement``,
``h-partition``) are :class:`~repro.kernels.program.ShardProgram`
objects: calling one runs the one-shard case in process, and
:mod:`repro.shard` runs the same object shard by shard
(:func:`get_program`).

Kernels are registered per :class:`~repro.local.algorithm.NodeAlgorithm`
``name`` and resolved lazily (:func:`get_kernel` imports the backing
module on first use), so importing :mod:`repro.kernels` stays cheap and
free of circular imports with the substrate modules.

The optional numba fast path lives behind the ``REPRO_NUMBA`` feature
flag (see :mod:`repro.kernels.backend`): when numba is absent or the flag
is off, every kernel runs its pure-numpy implementation — same results,
graceful degradation, no hard dependency.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.kernels.backend import numba_available, numba_enabled

__all__ = [
    "KernelUnsupported",
    "dense_extras",
    "get_kernel",
    "get_program",
    "kernel_names",
    "node_extras",
    "program_names",
    "register_kernel",
    "numba_available",
    "numba_enabled",
]


class KernelUnsupported(Exception):
    """A kernel declined this input; the caller must fall back to the
    per-node scheduler. Never escapes the engine or sharding layer."""


#: algorithm name -> module that registers its kernel on import.
_KERNEL_MODULES: Dict[str, str] = {
    "linial": "repro.kernels.linial",
    "defective-refinement": "repro.kernels.linial",
    "basic-reduction": "repro.kernels.reduction",
    "kw-phase": "repro.kernels.reduction",
    "cole-vishkin": "repro.kernels.cole_vishkin",
    "h-partition": "repro.kernels.peeling",
}

#: algorithm name -> kernel(graph, extras, max_rounds) -> RunResult.
_KERNELS: Dict[str, Callable[..., Any]] = {}

#: algorithm name -> (node-keyed extras, the subset whose values are
#: node ids as well).
_NODE_EXTRAS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}

_MISSING = object()


def register_kernel(
    name: str,
    kernel: Callable[..., Any],
    *,
    node_keyed: Sequence[str],
    node_valued: Sequence[str] = (),
) -> Callable[..., Any]:
    """Register ``kernel`` as the whole-run executor for algorithm
    ``name`` (the :class:`NodeAlgorithm` name, not the registry name).

    ``node_keyed`` names the extras that map node -> value;
    ``node_valued`` those of them whose values are node ids too.
    """
    _KERNELS[name] = kernel
    _NODE_EXTRAS[name] = (tuple(node_keyed), tuple(node_valued))
    return kernel


def _resolve(name: Any) -> Optional[Callable[..., Any]]:
    # get_program reads the registry here, not through get_kernel, which
    # instrumentation may wrap.
    if not isinstance(name, str):
        return None
    kernel = _KERNELS.get(name)
    if kernel is None and name in _KERNEL_MODULES:
        importlib.import_module(_KERNEL_MODULES[name])
        kernel = _KERNELS.get(name)
    return kernel


def get_kernel(name: Optional[str]) -> Optional[Callable[..., Any]]:
    """The kernel registered for algorithm ``name``, or None.

    Lazily imports the backing module the first time a name is asked for,
    so kernel registration never burdens interpreter startup.
    """
    return _resolve(name)


def get_program(name: Optional[str]) -> Optional[Any]:
    """The registered kernel for algorithm ``name`` if it is a round
    program (so it also runs shard by shard), else None."""
    from repro.kernels.program import ShardProgram

    kernel = _resolve(name)
    return kernel if isinstance(kernel, ShardProgram) else None


def node_extras(name: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(node_keyed, node_valued)`` as declared when the kernel for
    algorithm ``name`` was registered."""
    _resolve(name)
    return _NODE_EXTRAS[name]


def dense_extras(
    name: str, extras: Mapping[str, Any], index: Dict[Any, int]
) -> Dict[str, Any]:
    """``extras`` with kernel ``name``'s node-keyed tables relabeled to
    the dense ids ``index`` assigns the graph's nodes.

    Each table is restricted to the graph's nodes, because the per-node
    path only ever reads a node's own entry (``table.get(node)``). A node
    the table misses stays missing, for the kernel's own coverage check
    to decline (or, for a node-valued map like ``parent``, to read as
    ``None``, as ``.get`` does). Anything but a dict is passed through for
    the kernel to decline. A node-valued entry that names no graph node
    has no dense id: :class:`KernelUnsupported`.
    """
    keyed, valued = node_extras(name)
    dense = dict(extras)
    for key in keyed:
        table = dense.get(key)
        if not isinstance(table, dict):
            continue
        relabeled: Dict[int, Any] = {}
        lookup = table.get
        for v, i in index.items():
            value = lookup(v, _MISSING)
            if value is _MISSING:
                continue
            if key in valued and value is not None:
                try:
                    value = index[value]
                except (KeyError, TypeError):
                    raise KernelUnsupported(f"{key} outside the graph")
            relabeled[i] = value
        dense[key] = relabeled
    return dense


def kernel_names() -> list:
    """Sorted names of all algorithms with a registered kernel (forces
    the lazy imports — this is the introspection surface, not the hot
    path)."""
    for module in sorted(set(_KERNEL_MODULES.values())):
        importlib.import_module(module)
    return sorted(_KERNELS)


def program_names() -> list:
    """Sorted names of the kernels that are round programs."""
    return [name for name in kernel_names() if get_program(name) is not None]
