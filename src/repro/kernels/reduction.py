"""Whole-run kernels for the color-reduction substrates.

Both reductions schedule one color class per round, highest class first;
each class is an independent set, so its members re-pick simultaneously
from a mex over the neighbor colors *as of that round*. The sequential
structure collapses into a per-class sweep:

* a node's re-pick round is fixed at initialization from its initial
  color, so the classes and their order are known upfront;
* when class ``c`` re-picks, every neighbor in a *higher* class already
  holds its final color and every other neighbor still holds its initial
  one — exactly the state of a colors vector updated class-by-class in
  descending order;
* the mex over each member's neighborhood is one scatter into a
  (members x target) seen-mask plus an argmin — ``np.add.reduceat``-style
  segment ops over ``indptr``, no per-node dispatch.

Message accounting is closed-form: the initialization broadcast delivers
``2m`` messages in round 1, and the class re-picked in round ``r``
broadcasts its degree sum into round ``r + 1``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import ColoringError, RoundLimitExceeded
from repro.kernels import KernelUnsupported, register_kernel
from repro.kernels.segments import dense_int_table, require_int, segment_gather
from repro.local.network import RunResult

#: Cap on the (members x target) mex mask; inputs past it fall back to
#: the event-driven per-node path rather than risk a memory spike.
_MAX_MEX_CELLS = 64_000_000


def _round_profile(
    graph: Any,
    wake_round: np.ndarray,
    active: np.ndarray,
    last_round: int,
    max_rounds: int,
) -> Tuple[int, List[int]]:
    """Total messages and the per-round delivery profile for a class
    sweep whose last re-pick happens in ``last_round``."""
    degrees = np.diff(graph.indptr).astype(np.int64)
    two_m = int(graph.indices.size)
    if last_round > max_rounds:
        still_running = int((wake_round[active] > max_rounds).sum())
        raise RoundLimitExceeded(max_rounds, still_running)
    deliveries = np.zeros(last_round + 1, dtype=np.int64)
    deliveries[0] = two_m
    np.add.at(deliveries, wake_round[active], degrees[active])
    messages = two_m + int(degrees[active].sum())
    # round r delivers the sends of round r - 1; the final class's
    # broadcast is sent (counted in ``messages``) but never delivered.
    return messages, deliveries[:last_round].tolist()


def _class_sweep(
    graph: Any,
    colors: np.ndarray,
    active: np.ndarray,
    class_key: np.ndarray,
    pick: Any,
    target: int,
) -> np.ndarray:
    """Re-pick every active class in descending ``class_key`` order.

    ``pick(members, neighbors, owner, cur)`` returns the new colors of
    ``members`` given the gathered neighborhood state ``cur[neighbors]``.
    """
    cur = colors.copy()
    act = np.flatnonzero(active)
    if act.size == 0:
        return cur
    order = act[np.argsort(-class_key[act], kind="stable")]
    keys = class_key[order]
    # one slice per distinct class, descending — boundaries where the
    # (descending) sorted key changes.
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    bounds = np.r_[starts, keys.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        members = order[a:b]
        neighbors, owner = segment_gather(graph.indptr, graph.indices, members)
        cur[members] = pick(members, neighbors, owner, cur)
    return cur


def _masked_mex(
    member_count: int,
    owner: np.ndarray,
    candidate: np.ndarray,
    valid: np.ndarray,
    limit: int,
) -> np.ndarray:
    """Per-member mex below ``limit`` over the valid candidate values."""
    if member_count * limit > _MAX_MEX_CELLS:
        raise KernelUnsupported("mex mask too large; per-node path instead")
    seen = np.zeros(member_count * limit, dtype=bool)
    seen[owner[valid] * limit + candidate[valid]] = True
    seen = seen.reshape(member_count, limit)
    full = seen.all(axis=1)
    if full.any():
        raise ColoringError(f"no free color below {limit}")
    return np.argmin(seen, axis=1).astype(np.int64)


def basic_reduction_kernel(
    graph: Any, extras: Dict[str, Any], max_rounds: int
) -> RunResult:
    if not {"coloring", "m", "target"} <= set(extras):
        raise KernelUnsupported("missing basic-reduction extras")
    n = graph.n
    if n == 0:
        return RunResult(rounds=0, messages=0, outputs={}, round_messages=[])
    colors = dense_int_table(extras["coloring"], n)
    m = require_int(extras["m"])
    target = require_int(extras["target"])
    if target <= 0:
        raise KernelUnsupported("non-positive target")
    active = colors >= target
    if not active.any():
        # everyone halts at initialization; the broadcast is sent but the
        # run ends before any delivery round.
        return RunResult(
            rounds=0,
            messages=int(graph.indices.size),
            outputs=dict(enumerate(colors.tolist())),
            round_messages=[],
        )
    wake_round = m - colors  # class c re-picks in round m - c
    if int(wake_round[active].min()) < 1:
        # a color >= m never re-picks (its slot is in the past): the
        # per-node run would exhaust max_rounds; don't model that here.
        raise KernelUnsupported("color >= m")
    last_round = int(wake_round[active].max())
    messages, round_messages = _round_profile(
        graph, wake_round, active, last_round, max_rounds
    )

    def pick(members, neighbors, owner, cur):
        cand = cur[neighbors]
        valid = (cand >= 0) & (cand < target)
        return _masked_mex(members.size, owner, cand, valid, target)

    cur = _class_sweep(graph, colors, active, colors, pick, target)
    return RunResult(
        rounds=last_round,
        messages=messages,
        outputs=dict(enumerate(cur.tolist())),
        round_messages=round_messages,
    )


def kw_phase_kernel(graph: Any, extras: Dict[str, Any], max_rounds: int) -> RunResult:
    if not {"coloring", "block", "palette"} <= set(extras):
        raise KernelUnsupported("missing kw-phase extras")
    n = graph.n
    if n == 0:
        return RunResult(rounds=0, messages=0, outputs={}, round_messages=[])
    colors = dense_int_table(extras["coloring"], n)
    block = require_int(extras["block"])
    palette = require_int(extras["palette"])
    if block <= 0 or palette <= 0 or palette > block:
        raise KernelUnsupported("degenerate (block, palette)")
    rel = colors % block
    blk = colors // block
    active = rel >= palette
    if not active.any():
        return RunResult(
            rounds=0,
            messages=int(graph.indices.size),
            outputs=dict(enumerate(colors.tolist())),
            round_messages=[],
        )
    wake_round = block - rel  # in-block class rel re-picks in round block - rel
    last_round = int(wake_round[active].max())
    messages, round_messages = _round_profile(
        graph, wake_round, active, last_round, max_rounds
    )

    def pick(members, neighbors, owner, cur):
        cand = cur[neighbors]
        cand_rel = cand % block
        # only neighbors in the *member's* block constrain, and only
        # their in-block colors below the palette matter for the mex.
        valid = (cand // block == blk[members][owner]) & (cand_rel < palette)
        new_rel = _masked_mex(members.size, owner, cand_rel, valid, palette)
        return blk[members] * block + new_rel

    cur = _class_sweep(graph, colors, active, rel, pick, palette)
    return RunResult(
        rounds=last_round,
        messages=messages,
        outputs=dict(enumerate(cur.tolist())),
        round_messages=round_messages,
    )


register_kernel(
    "basic-reduction", basic_reduction_kernel, node_keyed=("coloring",)
)
register_kernel("kw-phase", kw_phase_kernel, node_keyed=("coloring",))
