"""Round programs: one definition of a synchronous kernel, run whole or
shard by shard.

A program splits a bulk-synchronous LOCAL procedure at the shard
boundary:

* the **coordinator** half (``plan``, ``init_payload``, ``next_action``,
  ``result``) plans the run from globally known inputs — ``{n, m,
  max_degree}`` plus the algorithm extras — decides after every round
  whether to continue, keeps the closed-form round/message accounting,
  and raises the algorithm's authentic errors (same type, same message
  as the per-node scheduler) from the reduced per-shard stats;
* the **worker** half (``init_state``, ``boundary``, ``step``,
  ``finalize``) holds one shard's state as a dict of arrays over its
  owned rows plus halo — also the checkpoint payload — and runs one
  array pass per round over the shard's local CSR slice. Foreign
  neighbor state arrives as the halo values of the preceding exchange.

Calling a program runs it in process as the one-shard case: a
whole-graph :class:`Shard` with an empty halo. That call is what
:func:`~repro.kernels.register_kernel` registers, so the vector engine's
kernel path and the sharded runtime (:mod:`repro.shard.runtime`, the
many-shard driver) execute the same arithmetic. Inputs a program cannot
reproduce exactly make ``plan`` raise
:class:`~repro.kernels.KernelUnsupported`; both drivers then fall back
to the per-node path and disclose it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.segments import edge_endpoints
from repro.local.network import RunResult


@dataclass
class Shard:
    """A local CSR slice: the parent graph's rows ``[lo, lo + n_own)``.

    ``indices`` hold local ids — an owned neighbor ``g`` is ``g - lo``, a
    foreign one is ``n_own + rank`` into the sorted global ids ``halo``.
    ``boundary`` lists the owned local ids with a foreign neighbor (the
    nodes whose state other shards read each round).
    """

    shard_id: int
    num_shards: int
    lo: int
    n_own: int
    n_halo: int
    parent_digest: str
    indptr: np.ndarray
    indices: np.ndarray
    halo: np.ndarray
    boundary: np.ndarray

    @classmethod
    def whole(cls, graph: Any) -> "Shard":
        """``graph`` as its only shard: every row owned, no halo."""
        empty = np.empty(0, dtype=np.int64)
        return cls(0, 1, 0, graph.n, 0, "", graph.indptr, graph.indices, empty, empty)

    @property
    def hi(self) -> int:
        return self.lo + self.n_own

    @cached_property
    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The owned rows' directed edges ``(src, dst)`` in local ids
        (``dst`` may be a halo id), built once per shard, not per round."""
        return edge_endpoints(self)


class ShardProgram:
    """Protocol base. ``plan`` returns ``(plan, None)`` or, for runs it
    settles without executing a round, ``(None, result)``. The plan's
    JSON-able ``acc`` entry is the coordinator state a checkpoint saves;
    the rest of the plan is rebuilt deterministically on resume."""

    name: str = ""

    def __call__(
        self, graph: Any, extras: Dict[str, Any], max_rounds: int
    ) -> RunResult:
        """The whole-run kernel: the one-shard case, driven in process."""
        manifest = {"n": graph.n, "m": graph.m, "max_degree": graph.max_degree}
        plan, short = self.plan(manifest, extras, max_rounds)
        if short is not None:
            return short
        shard = Shard.whole(graph)
        state, stats = self.init_state(shard, self.init_payload(plan, shard))
        no_halo = np.empty(0, dtype=np.int64)
        completed = 0
        arg = self.next_action(plan, completed, [stats])
        while arg is not None:
            stats = self.step(shard, state, no_halo, arg)
            completed += 1
            arg = self.next_action(plan, completed, [stats])
        return self.result(plan, self.finalize(shard, state), manifest)

    # ---- coordinator half -------------------------------------------------
    def plan(
        self, manifest: Dict[str, Any], extras: Dict[str, Any], max_rounds: int
    ) -> Tuple[Optional[Dict[str, Any]], Optional[RunResult]]:
        raise NotImplementedError

    def init_payload(self, plan: Dict[str, Any], shard: Shard) -> Dict[str, Any]:
        raise NotImplementedError

    def next_action(
        self, plan: Dict[str, Any], completed: int, stats: List[Dict[str, Any]]
    ) -> Optional[Any]:
        """The argument of the next round's ``step``, or None to stop."""
        raise NotImplementedError

    def result(
        self, plan: Dict[str, Any], outputs: np.ndarray, manifest: Dict[str, Any]
    ) -> RunResult:
        raise NotImplementedError

    def fingerprint(self, plan: Dict[str, Any]) -> str:
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(repr(plan.get("print_key", "")).encode())
        for arr in plan.get("print_arrays", ()):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # ---- worker half ------------------------------------------------------
    def init_state(
        self, shard: Shard, payload: Dict[str, Any]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        raise NotImplementedError

    def boundary(self, shard: Shard, state: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def step(
        self,
        shard: Shard,
        state: Dict[str, np.ndarray],
        halo_vals: np.ndarray,
        arg: Any,
    ) -> Dict[str, Any]:
        raise NotImplementedError

    def finalize(self, shard: Shard, state: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError
