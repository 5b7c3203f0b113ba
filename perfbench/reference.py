"""The reference computation every benchmark time is divided by.

A fixed networkx computation that never calls the library, so its cost
moves only with the machine's speed. Other tenants of a shared host move
that speed by up to 2x for tens of seconds at a time; timing each
campaign between two runs of the reference and reporting
``measured time x NOMINAL_S / reference time`` cancels most of the drift.
The units stay comparable across commits because the reference never
changes, and read roughly as seconds on an idle 2-CPU host.

Workloads that keep both CPUs busy are timed against two concurrent
copies of the reference: one in the measuring process and one in a
helper process started from this module, which runs the reference each
time it reads a line and answers with its time::

    python3 -m perfbench.reference
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from typing import List

#: About the reference's time on a 2-CPU x86 VM at 2 GHz with an idle
#: host, so reference units read roughly as seconds there.
NOMINAL_S = 0.03


def _computation():
    import networkx

    graph = networkx.random_regular_graph(8, 300, seed=0)

    def once() -> float:
        started = time.perf_counter()
        networkx.greedy_color(networkx.line_graph(graph))
        return time.perf_counter() - started

    return once


class Reference:
    """Times the reference in this process and, with ``copies=2``, in a
    helper process at the same moment. Call :meth:`close` when done."""

    def __init__(self, copies: int = 1) -> None:
        if copies not in (1, 2):
            raise ValueError("the reference runs as one or two copies")
        self._once = _computation()
        self._helper = None
        if copies == 2:
            self._helper = subprocess.Popen(
                [sys.executable, "-m", "perfbench.reference"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            self._ask()
            self._answer()  # the helper has imported and warmed up
        self.last_s = 0.0
        #: Every time measured, in order.
        self.times: List[float] = []

    def _ask(self) -> None:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()

    def _answer(self) -> float:
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        return float(line)

    def time(self) -> float:
        """Run the reference (on every copy at once); return the mean time."""
        # Collected and without garbage collection, the reference costs the
        # same whatever the campaign before it left on the heap.
        gc.collect()
        gc.disable()
        try:
            if self._helper is not None:
                self._ask()
            times = [self._once()]
            if self._helper is not None:
                times.append(self._answer())
        finally:
            gc.enable()
        self.last_s = sum(times) / len(times)
        self.times.append(self.last_s)
        return self.last_s

    def close(self) -> None:
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait(timeout=30)
            self._helper.stdout.close()
            self._helper = None


def main() -> int:
    once = _computation()
    gc.disable()
    for _ in sys.stdin:
        gc.collect()
        print(once(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
