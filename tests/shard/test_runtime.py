"""The sharded runtime: process-pool execution, checkpoint/resume (and
the SIGKILL-mid-run drill), scope guards, and stats disclosure."""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs, workloads
from repro.errors import InvalidParameterError, RoundLimitExceeded
from repro.local.network import run_on_graph
from repro.shard import partition, sharding
from repro.substrates.defective import DefectiveRefinementAlgorithm
from repro.substrates.hpartition import _Peeler
from repro.substrates.linial import LinialAlgorithm


@pytest.fixture
def grid():
    return workloads.build("xl-grid", {"rows": 30, "cols": 21}, seed=0)


def _linial_extras(graph):
    return {
        "initial_coloring": {v: v for v in range(graph.n)},
        "m0": graph.n,
    }


class TestProcessPool:
    """Inline parity is covered exhaustively in test_shard_parity; these pin
    down the real process pool: persistent workers, isolated RSS."""

    def test_process_pool_matches_inline(self, grid, tmp_path):
        extras = _linial_extras(grid)
        bundle = partition(grid, 4, tmp_path / "bundle")
        with sharding(grid, bundle, inline=True) as scope:
            inline = run_on_graph(grid, LinialAlgorithm(), extras=extras)
            assert scope.last_stats["pool"] == "inline"
        with sharding(grid, bundle, inline=False) as scope:
            process = run_on_graph(grid, LinialAlgorithm(), extras=extras)
            stats = scope.last_stats
        assert stats["pool"] == "process"
        assert stats["worker_peak_rss_kb"] > 0
        assert process.outputs == inline.outputs
        assert process.round_messages == inline.round_messages

    def test_pool_persists_across_runs_in_one_scope(self, grid, tmp_path):
        bundle = partition(grid, 3, tmp_path / "bundle")
        with sharding(grid, bundle, inline=False) as scope:
            first = run_on_graph(grid, _Peeler(), extras={"threshold": 2})
            pool = scope._pool
            second = run_on_graph(
                grid, LinialAlgorithm(), extras=_linial_extras(grid)
            )
            assert scope._pool is pool  # same worker processes, re-inited
        assert first.rounds > 0 and second.rounds > 0

    @pytest.mark.parametrize("path", ["reference", "vector", 1, 3])
    @pytest.mark.parametrize(
        "algorithm,extras,max_rounds,message",
        [
            (
                LinialAlgorithm(),
                {"m0": 10**6},
                1,
                "algorithm did not halt within 1 rounds (630 nodes still running)",
            ),
            (
                DefectiveRefinementAlgorithm(),
                {"q": 11, "d": 3},
                0,
                "algorithm did not halt within 0 rounds (630 nodes still running)",
            ),
            (
                _Peeler(),
                {"threshold": 2},
                1,
                "algorithm did not halt within 1 rounds (618 nodes still running)",
            ),
            (
                _Peeler(),
                {"threshold": 0},
                50,
                "algorithm did not halt within 50 rounds (630 nodes still running)",
            ),
        ],
        ids=["linial", "defective-refinement", "peeler", "peeler-stalled"],
    )
    def test_authentic_errors_cross_the_scope(
        self, grid, tmp_path, algorithm, extras, max_rounds, message, path
    ):
        # The round limit surfaces as itself — same message on the
        # per-node scheduler, the kernel, and any shard count — never as
        # a pool error or a disclosed fallback.
        extras = dict(extras)
        if not isinstance(algorithm, _Peeler):
            extras["initial_coloring"] = {v: v for v in range(grid.n)}
        engine = path if isinstance(path, str) else "vector"
        with obs.collect() as runtime:
            with contextlib.ExitStack() as stack:
                if not isinstance(path, str):
                    bundle = partition(grid, path, tmp_path / "bundle")
                    stack.enter_context(sharding(grid, bundle, inline=True))
                with pytest.raises(RoundLimitExceeded) as caught:
                    run_on_graph(
                        grid,
                        algorithm,
                        extras=extras,
                        max_rounds=max_rounds,
                        engine=engine,
                    )
        assert type(caught.value) is RoundLimitExceeded
        assert str(caught.value) == message
        counters = runtime.snapshot()["counters"]
        assert not any("fallback" in key for key in counters)


class TestScopeGuards:
    def test_digest_mismatch_rejected_at_install(self, grid, tmp_path):
        other = workloads.build("xl-grid", {"rows": 21, "cols": 30}, seed=0)
        bundle = partition(grid, 3, tmp_path / "bundle")
        with pytest.raises(InvalidParameterError, match="repartition"):
            with sharding(other, bundle):
                pass  # pragma: no cover

    def test_precomputed_digest_skips_rehash(self, grid, tmp_path):
        bundle = partition(grid, 3, tmp_path / "bundle")
        with sharding(grid, bundle, parent_digest=bundle.parent_digest):
            pass  # accepted without calling graph.digest()

    def test_scope_uninstalled_after_exit(self, grid, tmp_path):
        from repro.shard.context import active

        bundle = partition(grid, 3, tmp_path / "bundle")
        with sharding(grid, bundle, inline=True):
            assert active() is not None
        assert active() is None


class TestCheckpointResume:
    def _run(self, grid, bundle, ckpt, extras=None, algo=None):
        with sharding(grid, bundle, inline=True, checkpoint=ckpt) as scope:
            result = run_on_graph(
                grid,
                algo or _Peeler(),
                extras=extras or {"threshold": 2},
                engine="vector",
            )
            return result, scope.last_stats

    def test_completed_checkpoint_resumes_to_identical_result(
        self, grid, tmp_path
    ):
        bundle = partition(grid, 4, tmp_path / "bundle")
        ckpt = tmp_path / "ckpt"
        fresh, stats = self._run(grid, bundle, ckpt)
        assert not stats["resumed"]
        assert (ckpt / "meta.json").exists()
        # second run resumes from the final committed round and must
        # reproduce the exact same RunResult
        resumed, stats = self._run(grid, bundle, ckpt)
        assert stats["resumed"]
        assert resumed.outputs == fresh.outputs
        assert resumed.rounds == fresh.rounds
        assert resumed.messages == fresh.messages
        assert resumed.round_messages == fresh.round_messages

    def test_foreign_checkpoint_ignored(self, grid, tmp_path):
        # same directory, different plan (threshold changed): the
        # fingerprint mismatch forces a fresh run, not a bogus resume
        bundle = partition(grid, 4, tmp_path / "bundle")
        ckpt = tmp_path / "ckpt"
        self._run(grid, bundle, ckpt, extras={"threshold": 3})
        plain = run_on_graph(
            grid, _Peeler(), extras={"threshold": 2}, engine="vector"
        )
        result, stats = self._run(grid, bundle, ckpt, extras={"threshold": 2})
        assert not stats["resumed"]
        assert result.outputs == plain.outputs

    def test_sigkill_mid_run_then_resume_is_byte_identical(self, tmp_path):
        """The drill the checkpoint exists for: a coordinator SIGKILLed
        right after committing round 3 (workers still live mid-exchange)
        must resume to the bit-identical result."""
        workdir = tmp_path / "drill"
        workdir.mkdir()
        script = (
            "import json, os, sys\n"
            "from repro import workloads\n"
            "from repro.local.network import run_on_graph\n"
            "from repro.shard import ShardBundle, partition, sharding\n"
            "from repro.substrates.hpartition import _Peeler\n"
            "workdir = sys.argv[1]\n"
            "g = workloads.build('xl-grid', {'rows': 30, 'cols': 21}, seed=0)\n"
            "bdir = os.path.join(workdir, 'bundle')\n"
            "if os.path.exists(os.path.join(bdir, 'manifest.json')):\n"
            "    bundle = ShardBundle.open(bdir)\n"
            "else:\n"
            "    bundle = partition(g, 4, bdir)\n"
            "ck = os.path.join(workdir, 'ckpt')\n"
            "with sharding(g, bundle, checkpoint=ck) as scope:\n"
            "    got = run_on_graph(g, _Peeler(), extras={'threshold': 2},"
            " engine='vector')\n"
            "    resumed = scope.last_stats['resumed']\n"
            "print(json.dumps({'rounds': got.rounds, 'messages': got.messages,"
            " 'round_messages': got.round_messages,"
            " 'outputs': sorted(got.outputs.items()), 'resumed': resumed}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())] + env.get("PYTHONPATH", "").split(os.pathsep)
        )

        def run_once(extra_env=None):
            return subprocess.run(
                [sys.executable, "-c", script, str(workdir)],
                env=dict(env, **(extra_env or {})),
                capture_output=True,
                text=True,
                timeout=120,
            )

        # crash run: killed by the injection hook after committing round 3
        crashed = run_once({"REPRO_SHARD_CRASH_AFTER_ROUND": "3"})
        assert crashed.returncode == -9, crashed.stderr
        meta = json.loads((workdir / "ckpt" / "meta.json").read_text())
        assert meta["completed"] == 3
        # resume run completes and reports resumption
        finished = run_once()
        assert finished.returncode == 0, finished.stderr
        resumed = json.loads(finished.stdout)
        assert resumed["resumed"] is True
        # a never-interrupted control run in a fresh checkpoint dir
        import shutil

        shutil.rmtree(workdir / "ckpt")
        control_proc = run_once()
        assert control_proc.returncode == 0, control_proc.stderr
        control = json.loads(control_proc.stdout)
        assert control["resumed"] is False
        for key in ("rounds", "messages", "round_messages", "outputs"):
            assert resumed[key] == control[key]
