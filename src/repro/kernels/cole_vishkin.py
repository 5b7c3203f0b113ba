"""Whole-run kernel for Cole–Vishkin bit reduction on rooted forests.

One iteration is pure bitwise arithmetic on the colors vector: non-roots
XOR their color with their parent's previous color, isolate the lowest
set bit (``x & -x``; its position via an exact ``log2`` — powers of two
are exact in float64 far beyond any palette this library meets), and
re-encode as ``2 * i + own_bit``; roots re-encode as ``color & 1``. All
nodes run the globally known number of iterations and halt together, so
the profile is closed-form: every round delivers one message per
directed tree edge.

The kernel declines parent maps the per-node path would trip over
mid-run (parents that are not neighbors, non-int entries): the fallback
then raises the authentic per-node error.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.errors import InvalidParameterError, RoundLimitExceeded
from repro.kernels import KernelUnsupported, register_kernel
from repro.kernels.segments import dense_int_table, edge_endpoints, require_int
from repro.local.network import RunResult


def _parent_array(parent: Any, graph: Any) -> np.ndarray:
    """The parent map as an int64 vector (-1 for roots), declined unless
    every listed parent is a genuine neighbor of its child."""
    if not isinstance(parent, dict):
        raise KernelUnsupported("parent map is not a dict")
    n = graph.n
    par = np.full(n, -1, dtype=np.int64)
    for k, v in parent.items():
        if type(k) is not int:
            raise KernelUnsupported("non-int parent key")
        if not 0 <= k < n:
            continue  # never queried by any node
        if v is None:
            continue
        if type(v) is not int or not 0 <= v < n:
            raise KernelUnsupported("parent outside the graph")
        par[k] = v
    return par


def _check_parents_adjacent(
    par: np.ndarray, src: np.ndarray, dst: np.ndarray, n: int
) -> None:
    """Every non-root must actually neighbor its parent, or it would
    never receive a parent color (the per-node path then raises its own
    TypeError; not ours to mimic — decline instead)."""
    has_parent_edge = np.bincount(src[par[src] == dst], minlength=n) > 0
    if not has_parent_edge[par >= 0].all():
        raise KernelUnsupported("parent is not a neighbor")


def cole_vishkin_kernel(
    graph: Any, extras: Dict[str, Any], max_rounds: int
) -> RunResult:
    if not {"parent", "initial_coloring", "iterations"} <= set(extras):
        raise KernelUnsupported("missing cole-vishkin extras")
    n = graph.n
    if n == 0:
        return RunResult(rounds=0, messages=0, outputs={}, round_messages=[])
    colors = dense_int_table(extras["initial_coloring"], n)
    iterations = require_int(extras["iterations"])
    if iterations < 0:
        raise KernelUnsupported("negative iterations")
    par = _parent_array(extras["parent"], graph)
    if iterations == 0:
        return RunResult(
            rounds=0,
            messages=0,
            outputs=dict(enumerate(colors.tolist())),
            round_messages=[],
        )
    if iterations > max_rounds:
        raise RoundLimitExceeded(max_rounds, n)
    src, dst = edge_endpoints(graph)
    _check_parents_adjacent(par, src, dst, n)
    # a directed edge carries a message iff it runs child->parent or
    # parent->child (node.send on tree neighbors only).
    tree = (par[src] == dst) | (par[dst] == src)
    per_round = int(np.count_nonzero(tree))
    is_root = par < 0
    nonroot = np.flatnonzero(~is_root)
    for _ in range(iterations):
        new_colors = colors & 1  # roots: (bit position 0, own bit)
        if nonroot.size:
            diff = colors[nonroot] ^ colors[par[nonroot]]
            if (diff == 0).any():
                raise InvalidParameterError(
                    "colors must differ between parent and child"
                )
            lsb = diff & -diff
            if (lsb < 0).any():
                raise KernelUnsupported("color bit width out of range")
            i = np.round(np.log2(lsb.astype(np.float64))).astype(np.int64)
            new_colors[nonroot] = 2 * i + ((colors[nonroot] >> i) & 1)
        colors = new_colors
    return RunResult(
        rounds=iterations,
        messages=per_round * iterations,
        outputs=dict(enumerate(colors.tolist())),
        round_messages=[per_round] * iterations,
    )


register_kernel(
    "cole-vishkin",
    cole_vishkin_kernel,
    node_keyed=("initial_coloring", "parent"),
    node_valued=("parent",),
)
