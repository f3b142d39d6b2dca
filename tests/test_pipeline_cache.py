"""Staged pipeline: artifact cache correctness (warm == cold, bit-exact).

The load-bearing claims tested here:

* warm-started runs produce bit-identical results *and* bit-identical
  charged-round reports (`CostReport`) on both engines;
* cache keys invalidate on engine / root / coin_bias /
  reduction_exponent changes — and only from the affected stage onward
  (Merkle chaining);
* a persisted store round-trips through the npz protocol and can be
  rehydrated by a fresh process;
* the early-exit verification result carries the full field shape plus
  ``failed_stage``, and ``mst_sensitivity`` keys off that status;
* the deprecated ``_internals`` kwarg still works, with a warning.
"""

import numpy as np
import pytest

from repro.core.sensitivity import mst_sensitivity
from repro.core.verification import verify_mst
from repro.errors import ValidationError
from repro.graph.generators import known_mst_instance
from repro.graph.graph import WeightedGraph
from repro.mpc import MPCConfig
from repro.pipeline import (
    Artifact,
    ArtifactStore,
    PipelineParams,
    graph_fingerprint,
    run_sensitivity,
    run_verification,
    sensitivity_pipeline,
    verification_pipeline,
)

DIST_CFG = MPCConfig(min_machine_words=2048)


def _graph(seed=3, n=80):
    g, _ = known_mst_instance("random", n, extra_m=2 * n, rng=seed)
    return g


def _assert_verification_identical(a, b):
    assert a.is_mst == b.is_mst and a.reason == b.reason
    assert a.rounds == b.rounds
    assert a.diameter_estimate == b.diameter_estimate
    assert a.cluster_counts == b.cluster_counts
    np.testing.assert_array_equal(a.pathmax, b.pathmax)
    np.testing.assert_array_equal(a.violating_edges, b.violating_edges)
    assert a.report.to_dict() == b.report.to_dict()


def _assert_sensitivity_identical(a, b):
    assert a.rounds == b.rounds
    assert a.notes_peak == b.notes_peak
    assert a.root == b.root
    np.testing.assert_array_equal(a.sensitivity, b.sensitivity)
    np.testing.assert_array_equal(a.mc, b.mc)
    np.testing.assert_array_equal(a.pathmax, b.pathmax)
    np.testing.assert_array_equal(a.parent, b.parent)
    assert a.report.to_dict() == b.report.to_dict()


class TestWarmColdBitIdentity:
    def test_warm_start_across_planner_modes(self):
        """Planner on/off is a pure physical choice: artifacts and cost
        deltas cached by an eager run warm-start a planned run (and vice
        versa) with bit-identical results and reports."""
        g = _graph()
        store = ArtifactStore()
        eager_cold = mst_sensitivity(
            g, config=MPCConfig(planner=False), store=store)
        planned_warm = mst_sensitivity(
            g, config=MPCConfig(planner=True), store=store)
        _assert_sensitivity_identical(eager_cold, planned_warm)
        assert store.hits == 14  # every stage replayed from the eager run
        planned_cold = mst_sensitivity(g, config=MPCConfig(planner=True))
        _assert_sensitivity_identical(eager_cold, planned_cold)

    @pytest.mark.parametrize("engine,config", [
        ("local", None), ("distributed", DIST_CFG),
    ])
    def test_verify_warm_equals_cold(self, engine, config):
        g = _graph()
        cold = verify_mst(g, engine=engine, config=config)
        store = ArtifactStore()
        verify_mst(g, engine=engine, config=config, store=store)  # populate
        warm = verify_mst(g, engine=engine, config=config, store=store)
        _assert_verification_identical(cold, warm)
        # the warm run replayed every stage
        assert store.misses == 10 and store.hits == 10

    @pytest.mark.parametrize("engine,config", [
        ("local", None), ("distributed", DIST_CFG),
    ])
    def test_sensitivity_warm_after_verify(self, engine, config):
        g = _graph(seed=7)
        cold = mst_sensitivity(g, engine=engine, config=config)
        store = ArtifactStore()
        verify_mst(g, engine=engine, config=config, store=store)
        hits_before = store.hits
        warm = mst_sensitivity(g, engine=engine, config=config, store=store)
        _assert_sensitivity_identical(cold, warm)
        # all ten verification stages were replayed, only sens-* executed
        assert store.hits - hits_before == 10

    def test_transport_rounds_replayed(self):
        g = _graph(seed=11)
        cold = verify_mst(g, engine="distributed", config=DIST_CFG)
        store = ArtifactStore()
        verify_mst(g, engine="distributed", config=DIST_CFG, store=store)
        warm = verify_mst(g, engine="distributed", config=DIST_CFG,
                          store=store)
        assert warm.report.transport_rounds == cold.report.transport_rounds
        assert warm.report.peak_machine_words == cold.report.peak_machine_words


class TestInvalidation:
    def test_coin_bias_reruns_clustering_onward(self):
        g = _graph()
        store = ArtifactStore()
        base = verify_mst(g, store=store)
        h0 = store.hits
        swept = verify_mst(g, store=store, coin_bias=0.7)
        # substrate prefix (validate/rooting/dfs/diameter) replayed,
        # clustering..decide recomputed
        assert store.hits - h0 == 4
        assert swept.is_mst == base.is_mst
        assert swept.substrate_rounds == base.substrate_rounds

    def test_reduction_exponent_reruns_clustering_onward(self):
        g = _graph()
        store = ArtifactStore()
        verify_mst(g, store=store)
        h0 = store.hits
        r = verify_mst(g, store=store, reduction_exponent=1.5)
        assert store.hits - h0 == 4
        assert r.is_mst

    def test_root_change_invalidates_rooting_onward(self):
        g = _graph()
        store = ArtifactStore()
        verify_mst(g, store=store)
        h0 = store.hits
        r = verify_mst(g, store=store, root=17)
        assert store.hits - h0 == 1  # only validate is root-independent
        assert r.is_mst

    def test_engine_change_shares_nothing(self):
        g = _graph()
        store = ArtifactStore()
        verify_mst(g, store=store)
        h0 = store.hits
        verify_mst(g, engine="distributed", config=DIST_CFG, store=store)
        assert store.hits == h0

    def test_graph_change_shares_nothing(self):
        a, b = _graph(seed=1), _graph(seed=2)
        assert graph_fingerprint(a) != graph_fingerprint(b)
        store = ArtifactStore()
        verify_mst(a, store=store)
        h0 = store.hits
        verify_mst(b, store=store)
        assert store.hits == h0

    def test_oracle_labels_invalidates_rooting_onward(self):
        g = _graph()
        store = ArtifactStore()
        full = verify_mst(g, store=store)
        h0 = store.hits
        orc = verify_mst(g, store=store, oracle_labels=True)
        assert store.hits - h0 == 1
        assert orc.is_mst == full.is_mst
        assert orc.rounds < full.rounds


class TestPersistence:
    def test_store_npz_roundtrip(self, tmp_path):
        g = _graph(seed=5)
        cache = str(tmp_path / "cache")
        cold = mst_sensitivity(g)
        s1 = ArtifactStore(cache_dir=cache)
        mst_sensitivity(g, store=s1)
        # a *fresh* store (empty memory) must rehydrate from disk alone
        s2 = ArtifactStore(cache_dir=cache)
        warm = mst_sensitivity(g, store=s2)
        assert s2.disk_hits == 14 and s2.misses == 0
        _assert_sensitivity_identical(cold, warm)

    def test_truncated_entry_is_recomputed(self, tmp_path):
        g = _graph(seed=6)
        cache = tmp_path / "cache"
        cold, _ = run_sensitivity(g, store=ArtifactStore())
        run_sensitivity(g, store=ArtifactStore(cache_dir=str(cache)))
        victim = next(cache.glob("labels-*.npz"))
        victim.write_bytes(victim.read_bytes()[:100])
        store = ArtifactStore(cache_dir=str(cache))
        warm, run = run_sensitivity(g, store=store)
        assert run.executed_stages == ["labels"]
        stats = store.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        assert stats["disk_hits"] == 13
        _assert_sensitivity_identical(cold, warm)
        # the damaged file was replaced by the recomputed artifact
        assert ArtifactStore(cache_dir=str(cache)).get(victim.stem) is not None

    def test_single_artifact_roundtrip(self, tmp_path):
        g = _graph(seed=9)
        store = ArtifactStore()
        _, run = run_sensitivity(g, store=store)
        for name, art in run.artifacts.items():
            path = str(tmp_path / f"{name}.npz")
            art.save(path)
            back = Artifact.load(path)
            assert type(back) is type(art)
            assert back.cost.to_dict() == art.cost.to_dict()
            arrays_a, meta_a = art.payload()
            arrays_b, meta_b = back.payload()
            assert meta_a == meta_b
            assert set(arrays_a) == set(arrays_b)
            for k in arrays_a:
                np.testing.assert_array_equal(
                    np.asarray(arrays_a[k]), np.asarray(arrays_b[k])
                )


class TestPlanAndStatus:
    def test_plan_shape(self):
        plan = sensitivity_pipeline().plan()
        names = [e.name for e in plan]
        assert len(names) == 14
        assert names[:4] == ["validate", "rooting", "dfs", "diameter"]
        assert names[-1] == "sens-finalize"
        seen = set()
        for e in plan:
            assert all(d in seen for d in e.deps)
            seen.add(e.name)

    def test_plan_keys_and_cache_state(self):
        g = _graph()
        store = ArtifactStore()
        verify_mst(g, store=store)
        plan = sensitivity_pipeline().plan(g, PipelineParams(), store)
        cached = {e.name: e.cached for e in plan}
        for name in verification_pipeline().stage_names():
            assert cached[name] is True
        for name in ("sens-contract", "sens-cluster", "sens-unwind",
                     "sens-finalize"):
            assert cached[name] is False

    def test_failed_validate_has_full_shape(self):
        g = WeightedGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)],
            tree_edges=[(0, 1), (1, 2), (0, 2)],  # cycle, misses vertex 3
        )
        r = verify_mst(g)
        assert not r.is_mst
        assert r.reason == "not-spanning-tree"
        assert r.failed_stage == "validate"
        assert r.cluster_counts == []
        assert r.n_violations == 0 and len(r.violating_edges) == 0
        with pytest.raises(ValidationError, match="not a spanning tree"):
            mst_sensitivity(g)

    def test_failed_stage_serializes(self, tmp_path):
        from repro.core.results import VerificationResult

        g = WeightedGraph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0)], tree_edges=[(0, 1)]
        )
        r = verify_mst(g)
        assert r.failed_stage == "validate"
        path = tmp_path / "fail.npz"
        r.save(path)
        back = VerificationResult.load(path)
        assert back.failed_stage == "validate"
        ok = verify_mst(_graph())
        assert ok.failed_stage is None

    def test_internals_shim_warns_and_fills(self):
        g = _graph()
        internals = {}
        with pytest.warns(DeprecationWarning, match="_internals"):
            verify_mst(g, _internals=internals)
        for key in ("rt", "parent", "wpar", "low", "high", "d_hat",
                    "hierarchy", "halves", "labeled", "pm_half", "pathmax",
                    "nontree_index", "root"):
            assert key in internals


class TestConsumers:
    def test_batch_warm_start_inline(self, tmp_path):
        from repro.batch import BatchRunner, JobSpec

        jobs = [
            JobSpec(kind="verify", shape="binary", n=63, seed=4),
            JobSpec(kind="sensitivity", shape="binary", n=63, seed=4),
            JobSpec(kind="verify", shape="binary", n=63, seed=4),
        ]
        cold = BatchRunner(processes=1).run(jobs)
        warm = BatchRunner(processes=1,
                           cache_dir=str(tmp_path / "c")).run(jobs)
        for c, w in zip(cold, warm):
            assert c.ok and w.ok
            assert w.rounds == c.rounds
            assert w.core_rounds == c.core_rounds
            assert w.peak_words == c.peak_words
        assert warm[0].cache_hits == 0          # cold miss
        assert warm[1].cache_hits == 10         # verify prefix replayed
        assert warm[2].cache_hits == 10         # identical job: full replay

    def test_oracle_from_store(self):
        from repro.oracle import SensitivityOracle

        g = _graph(seed=6)
        store = ArtifactStore()
        verify_mst(g, store=store)
        oracle = SensitivityOracle.from_store(g, store)
        ref = SensitivityOracle.from_result(g, mst_sensitivity(g))
        np.testing.assert_array_equal(oracle.sens, ref.sens)
        np.testing.assert_array_equal(oracle.threshold, ref.threshold)
        np.testing.assert_array_equal(oracle.cover_edge, ref.cover_edge)

    def test_run_verification_returns_artifacts(self):
        g = _graph()
        result, run = run_verification(g)
        assert result.is_mst
        assert set(run.artifacts) == set(verification_pipeline().stage_names())
        assert run.artifacts["decide"].n_bad == 0
        # every executed stage recorded a replayable cost delta
        total = sum(a.cost.rounds_total for a in run.artifacts.values())
        assert total == result.rounds
