"""Layer spans recorded from outside the program.

:class:`Tracer` patches the public functions at each layer boundary of a
campaign cell (workload build, line-graph and arboricity derivation, the
coloring oracle, the vector engine, array kernels, the registry, verify,
shard partitioning and the store) with thin wrappers that append one span
per call to an in-memory list: ``[layer, start, end, parent, cell,
counts]``, where ``parent`` indexes the enclosing span and ``cell`` is
the key of the campaign cell the call ran in. Nothing is written while a
pass runs; :func:`layer_metrics` reduces the list afterwards.

``from X import f`` copies the binding, so every module-level alias of a
wrapped function is listed in :data:`ALIAS_SITES` and patched where it
lives. After patching, :meth:`Tracer.install` scans every loaded
``repro.*`` module for a leftover reference to an original and refuses to
trace if it finds one: an unpatched alias would silently move its time
into its caller's self time.

Campaign cells that run in forked pool workers record into the worker's
copy of the tracer; the cell wrapper ships those spans back on the row
(under :data:`ROW_KEY`) and :meth:`Tracer.adopt` re-bases them into the
parent's list.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Row key under which a pool worker returns the spans of its cell.
ROW_KEY = "_perfbench_spans"

#: (layer, module, attribute) for every module-level alias of a wrapped
#: function, patched in every listed module that is loaded. Modules are
#: reached through ``sys.modules`` because some packages re-export a
#: function under their submodule's name (``repro.core.cd_coloring``,
#: ``repro.shard.partition``).
ALIAS_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("cell", "repro.analysis.campaign", "_execute_cell"),
    ("workloads.build", "repro.workloads.registry", "build"),
    ("workloads.build", "repro.workloads", "build"),
    ("graphs.line_graph", "repro.graphs.linegraph", "line_graph_with_cover"),
    ("graphs.line_graph", "repro.graphs", "line_graph_with_cover"),
    ("graphs.line_graph", "repro.core.star_partition", "line_graph_with_cover"),
    ("graphs.line_graph", "repro.core.cd_coloring", "line_graph_with_cover"),
    ("graphs.line_graph", "repro.substrates.oracle", "line_graph_with_cover"),
    ("graphs.line_graph", "repro.baselines.weak_coloring", "line_graph_with_cover"),
    ("graphs.line_graph", "repro.workloads.builtin", "line_graph_with_cover"),
    ("graphs.line_graph", "repro.analysis.tables", "line_graph_with_cover"),
    ("graphs.arboricity_bounds", "repro.graphs.properties", "arboricity_bounds"),
    ("graphs.arboricity_bounds", "repro.graphs", "arboricity_bounds"),
    ("graphs.arboricity_bounds", "repro.core.arboricity", "arboricity_bounds"),
    ("graphs.arboricity_bounds", "repro.substrates.hpartition", "arboricity_bounds"),
    ("graphs.arboricity_bounds", "repro.cli", "arboricity_bounds"),
    ("core", "repro.registry", "run"),
    ("verify", "repro.verify.oracles", "verify_run"),
    ("verify", "repro.verify", "verify_run"),
    ("verify", "repro.verify.differential", "verify_run"),
    ("shard.partition", "repro.shard.partition", "partition"),
    ("shard.partition", "repro.shard", "partition"),
    ("kernels.lookup", "repro.kernels", "get_kernel"),
)

#: (layer, module, class, method) for wrapped methods; patching the class
#: attribute covers every caller.
METHOD_SITES: Tuple[Tuple[str, str, str, str], ...] = (
    ("substrates.oracle", "repro.substrates.oracle", "ColoringOracle", "vertex_coloring"),
    ("substrates.oracle", "repro.substrates.oracle", "ColoringOracle", "edge_coloring"),
    ("engine", "repro.engine.vector", "VectorEngine", "run"),
    ("store.put", "repro.store.store", "ExperimentStore", "put"),
    ("store.put", "repro.store.store", "ExperimentStore", "put_many"),
    ("store.put", "repro.store.cache", "RunCache", "record"),
    ("store.get", "repro.store.cache", "RunCache", "get"),
)

#: Layers whose self time is reported, in output order, with their
#: metric names.
TIMED_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("workloads.build", "workloads.build_s"),
    ("graphs.line_graph", "graphs.line_graph_s"),
    ("graphs.arboricity_bounds", "graphs.arboricity_bounds_s"),
    ("substrates.oracle", "substrates.oracle_s"),
    ("engine", "engine.self_s"),
    ("kernels", "kernels.s"),
    ("core", "core.self_s"),
    ("verify", "verify.s"),
    ("shard.partition", "shard.partition_s"),
    ("store.put", "store.put_s"),
    ("store.get", "store.get_s"),
)


def cell_id(cell: Any) -> str:
    """A campaign cell's run-key text plus its shard count, which the key
    leaves out."""
    return cell.key() + (f"|shards={cell.shards}" if cell.shards else "")


def _payload_cell_id(payload: Dict[str, Any]) -> str:
    from repro.analysis.campaign import CampaignCell

    return cell_id(CampaignCell(
        algorithm=payload["algorithm"],
        workload=payload["workload"],
        workload_params=payload["workload_params"],
        seed=payload["seed"],
        algo_params=payload["algo_params"],
        shards=payload.get("shards"),
    ))


class Tracer:
    """Span recorder that patches the layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self._cell: Optional[str] = None
        self._pid = os.getpid()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self, layer: str) -> List[Any]:
        record = [layer, time.perf_counter(), None,
                  self._open[-1] if self._open else None, self._cell, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self, record: List[Any]) -> None:
        record[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if layer == "cell":
            return self._wrap_cell(fn)
        if layer == "kernels.lookup":
            return self._wrap_lookup(fn)
        counted = layer in ("engine", "store.get", "kernels")

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(record)
            if counted:
                record[5] = _counts(layer, result)
            return result

        return wrapper

    def _wrap_lookup(self, get_kernel: Callable[..., Any]) -> Callable[..., Any]:
        """Kernels are looked up per run; wrap each callable handed out."""

        @functools.wraps(get_kernel)
        def wrapper(name: Any) -> Any:
            kernel = get_kernel(name)
            return None if kernel is None else self._wrap("kernels", kernel)

        return wrapper

    def _wrap_cell(self, execute: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(execute)
        def wrapper(payload: Dict[str, Any]) -> Dict[str, Any]:
            first = len(self.spans)
            self._cell = _payload_cell_id(payload)
            record = self._enter("cell")
            try:
                row = execute(payload)
            finally:
                self._exit(record)
                self._cell = None
            if os.getpid() != self._pid:
                # A forked pool worker: hand the cell's spans back on the row.
                shipped = [
                    [name, start, end,
                     None if parent is None or parent < first else parent - first,
                     cell, counts]
                    for name, start, end, parent, cell, counts in self.spans[first:]
                ]
                del self.spans[first:]
                row = dict(row, **{ROW_KEY: shipped})
            return row

        return wrapper

    def adopt(self, rows: List[Dict[str, Any]]) -> None:
        """Move the spans pool workers shipped on ``rows`` into this
        tracer, re-basing their parent indices."""
        adopted = set()
        for row in rows:
            shipped = row.pop(ROW_KEY, None)
            # in-run duplicates share one computed row (and its spans)
            if not shipped or id(shipped) in adopted:
                continue
            adopted.add(id(shipped))
            base = len(self.spans)
            for name, start, end, parent, cell, counts in shipped:
                self.spans.append([name, start, end,
                                   None if parent is None else parent + base,
                                   cell, counts])

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every site, then fail if a loaded ``repro.*`` module still
        references an original."""
        originals: Dict[int, Tuple[str, Any]] = {}
        for layer, module_name, attr in ALIAS_SITES:
            # sys.modules holds the submodule even where the parent package
            # re-exports a same-named function. A module not loaded yet
            # binds the patched function when it is imported.
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            if not callable(original):
                raise RuntimeError(f"{module_name}.{attr} is not a function")
            if id(original) not in originals:
                originals[id(original)] = (layer, self._wrap(layer, original))
            elif originals[id(original)][0] != layer:
                raise RuntimeError(f"{module_name}.{attr} listed under two layers")
            self._set(module, attr, originals[id(original)][1])
        for layer, module_name, cls_name, method in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            originals[id(original)] = (layer, None)
            self._set(cls, method, self._wrap(layer, original))
        self._originals = {key: layer for key, (layer, _) in originals.items()}
        leftovers = self.leftovers()
        if leftovers:
            self.uninstall()
            raise RuntimeError(
                "unpatched aliases of traced functions: " + ", ".join(leftovers)
            )

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def leftovers(self) -> List[str]:
        """``module.attr`` of every loaded ``repro`` module global that is
        still an original of a wrapped function."""
        found = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in self._originals:
                    found.append(f"{name}.{attr}")
        return sorted(found)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _counts(layer: str, result: Any) -> Any:
    if layer == "engine":
        return (int(result.rounds), int(result.messages))
    if layer == "store.get":
        return result is not None
    return True  # kernels: a returned result is a dispatch; declines raise


def layer_metrics(spans: List[List[Any]], rows: List[Dict[str, Any]],
                  scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of one traced pass: each layer's self time (its
    spans minus their child spans), the counts recorded at the same
    boundaries, and the cell time no layer span covers. Times are
    multiplied by ``scale``."""
    self_s: Dict[str, float] = {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _cell, _counts in spans:
        if parent is not None:
            child_s[parent] += end - start
    for index, (name, start, end, _parent, _cell, _counts) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[index]
    metrics = {metric: self_s.get(layer, 0.0) * scale for layer, metric in TIMED_LAYERS}

    engine = [counts for name, *_, counts in spans if name == "engine"]
    kernel_runs = sum(1 for name, *_, counts in spans if name == "kernels" and counts)
    gets = [counts for name, *_, counts in spans if name == "store.get"]
    exchanged = 0
    queue_ms = []
    for row in rows:
        blob = row.get("metrics") or {}
        exchanged += (blob.get("counters") or {}).get("shard.exchanged_values", 0)
        if isinstance(blob.get("queue_ms"), (int, float)):
            queue_ms.append(float(blob["queue_ms"]))
    metrics.update({
        "engine.runs": float(len(engine)),
        "engine.rounds": float(sum(rounds for rounds, _ in engine)),
        "engine.messages": float(sum(messages for _, messages in engine)),
        "kernels.dispatch_ratio": kernel_runs / len(engine) if engine else 0.0,
        "shard.exchanged_values": float(exchanged),
        "store.hit_ratio": sum(1 for hit in gets if hit) / len(gets) if gets else 0.0,
        "campaign.queue_ms.p50": (statistics.median(queue_ms) if queue_ms else 0.0) * scale,
        "unattributed_s": self_s.get("cell", 0.0) * scale,
    })
    return metrics
