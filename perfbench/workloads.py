"""The benchmark's workloads: campaign cells derived from a seed.

Each workload is a list of campaigns; a pass runs each campaign over its
own fresh store, timed between two runs of the reference computation
(see ``perfbench/reference.py``). Campaigns are kept short (one cell, or
one seed of the default grid) so that they pair tightly with their
references, and a pass takes one to five seconds on a 2-CPU machine, so
a thirty-second run repeats it six times or more. ``tiny=True``
shrinks every graph so the benchmark's own tests run in seconds.

Why these four (shares of traced layer time at seed 1, 30-s runs):

* ``delta-ladder`` — the paper's edge-coloring pipelines on regular
  graphs, where the per-node vector engine (61%) and the FHK coloring
  oracle (13%) do most of the work and no array kernel dispatches.
* ``section5-stack`` — the ``a << Delta`` regime of Section 5 on unions
  of star forests, with arboricity derived rather than passed:
  ``arboricity_bounds`` (43%) and the subgraph glue in ``core`` (18%)
  outweigh the engine (33%).
* ``xl-kernels`` — CSR graphs on the whole-run array-kernel path, which
  bypasses ``core`` and the per-node engine: verify-on-CSR (39%),
  graphcore builders (26%), kernels (7%) and, in a campaign of its own,
  the sharded runtime (partitioning 2%, the rest in ``core``).
* ``grid-campaign`` — many tiny cells across a two-worker process pool,
  where waiting in the pool is half of a cell's latency and the store is
  written and resumed most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Workload names, as in BENCHMARK.json (which says why each was chosen).
NAMES = ("delta-ladder", "section5-stack", "xl-kernels", "grid-campaign")

EDGE_PIPELINES = ("star4", "thm52", "cor55", "forest", "cd")
SECTION5 = ("thm52", "thm53", "cor55", "h-partition", "vertex-arboricity")


@dataclass(frozen=True)
class Workload:
    name: str
    campaigns: Tuple[Tuple, ...]  # tuple of tuples of CampaignCell
    jobs: int

    @property
    def cells(self) -> List:
        return [cell for campaign in self.campaigns for cell in campaign]


def build(name: str, seed: int, tiny: bool = False, plant_failure: bool = False) -> Workload:
    """The cells of workload ``name`` for ``seed``. ``plant_failure`` adds
    one cell whose workload parameters are invalid, so it errors."""
    from repro.analysis.campaign import CampaignCell, default_cells

    jobs = 1
    if name == "delta-ladder":
        # two graphs, so that the pipelines' costs, colors and rounds
        # average over more than one graph's quirks
        params = {"n": 40 if tiny else 200, "d": 6}
        cells = [CampaignCell(a, "random-regular", params, seed=2 * seed + j)
                 for j in range(2) for a in EDGE_PIPELINES]
    elif name == "section5-stack":
        # Three graphs of n=1332, large enough that the quadratic
        # arboricity_bounds is the costliest layer. Few centers with many
        # leaves each make it rare that the two forests share a center,
        # which would double Delta and the colors of that graph; three
        # graphs average out the seed-to-seed spread of the rounds.
        params = {"n_centers": 3 if tiny else 4,
                  "leaves_per_center": 12 if tiny else 332, "a": 2}
        cells = [CampaignCell(a, "star-forest-stack", params, seed=3 * seed + j)
                 for j in range(3) for a in SECTION5]
    elif name == "xl-kernels":
        grid = {"rows": 30 if tiny else 200, "cols": 30 if tiny else 200}
        stack = {"n_centers": 8 if tiny else 160, "leaves_per_center": 124, "a": 2}
        cells = [
            CampaignCell("linial", "xl-grid", grid),
            CampaignCell("h-partition", "xl-forest-stack", stack, seed=seed,
                         algo_params={"arboricity": 2}),
            # Shards are not part of the run key, so this cell shares its
            # key with the first; a store of its own makes it compute.
            CampaignCell("linial", "xl-grid", grid, shards=2),
        ]
    elif name == "grid-campaign":
        count = 1 if tiny else 6
        campaigns = [default_cells(seeds=[s]) for s in range(seed * count, (seed + 1) * count)]
        jobs = 2
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    if jobs == 1:
        # one campaign per cell, so each is timed between two references
        campaigns = [[cell] for cell in cells]
    if plant_failure:
        campaigns.append([CampaignCell("star4", "random-regular", {"n": 5, "d": 3}, seed=seed)])
    return Workload(name, tuple(tuple(c) for c in campaigns), jobs)
