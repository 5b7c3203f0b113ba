"""Ablation: measured oracle rounds vs. the modeled [17] bound.

Our executable oracle costs O(Delta log Delta + log* n) rounds while the
paper charges O~(sqrt(Delta)) + O(log* n); this sweep records both so the
substitution's effect on every reported running time is explicit.
"""

import pytest

from repro.verify.checkers import verify_vertex_coloring
from repro.graphs import max_degree, random_regular
from repro.local import RoundLedger
from repro.substrates import ColoringOracle

DELTAS = (4, 8, 16, 24)


@pytest.mark.parametrize("delta", DELTAS)
def test_oracle_cost_sweep(benchmark, record_info, delta):
    n = 72 if (72 * delta) % 2 == 0 else 73
    graph = random_regular(n, delta, seed=23)

    def run():
        ledger = RoundLedger()
        coloring = ColoringOracle().vertex_coloring(graph, ledger=ledger)
        return coloring, ledger

    coloring, ledger = benchmark(run)
    verify_vertex_coloring(graph, coloring, palette=delta + 1)
    record_info(
        benchmark,
        {
            "experiment": "ablation-oracle",
            "delta": delta,
            "rounds_actual": ledger.total_actual,
            "rounds_modeled": ledger.total_modeled,
            "ratio": ledger.total_actual / max(ledger.total_modeled, 1e-9),
        },
    )
