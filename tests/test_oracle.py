"""Oracle correctness: brute-force cross-checks against MST recompute.

Every ``survives``/``entry_threshold``/``replacement_edge`` answer is
validated by actually changing the weight and re-running Kruskal
(``seq_mst``), including exact-tie queries and bridge (infinite
sensitivity) edges.
"""

import numpy as np
import pytest

from repro.baselines.seq_mst import kruskal_mst, mst_weight
from repro.core.results import SensitivityResult
from repro.core.sensitivity import mst_sensitivity
from repro.errors import ValidationError
from repro.graph.generators import known_mst_instance
from repro.graph.graph import WeightedGraph
from repro.graph.tree import RootedTree
from repro.oracle import SensitivityOracle, build_oracle

EPS = 0.005


def brute_survives(g, e, x) -> bool:
    """Ground truth: is the flagged tree still an MST with w(e)=x?"""
    w = g.w.copy()
    w[e] = x
    g2 = g.with_weights(w)
    tree_sum = g2.w[g2.tree_mask].sum()
    return bool(np.isclose(tree_sum, mst_weight(g2), rtol=1e-9, atol=1e-9))


def candidate_weights(g, oracle, e):
    """Original weight, both sides of the threshold, the exact tie, and
    far-out extremes."""
    thr = oracle.threshold[e]
    cands = [float(g.w[e]), 1e9, -1e9]
    if np.isfinite(thr):
        cands += [float(thr), float(thr) - EPS, float(thr) + EPS]
    return cands


@pytest.mark.parametrize("shape,seed,mode", [
    ("random", 0, "mst"),
    ("random", 1, "tight"),     # exact ties with the path maximum
    ("caterpillar", 2, "mst"),
    ("binary", 3, "tight"),
])
def test_survives_matches_recompute(shape, seed, mode):
    g, _ = known_mst_instance(shape, 16, extra_m=24, rng=seed, mode=mode)
    oracle = build_oracle(g)
    for e in range(g.m):
        for x in candidate_weights(g, oracle, e):
            assert oracle.survives(e, x) == brute_survives(g, e, x), \
                f"edge {e} (tree={bool(g.tree_mask[e])}) at weight {x}"


def test_exact_tie_queries_survive():
    g, _ = known_mst_instance("random", 20, extra_m=30, rng=5, mode="tight")
    oracle = build_oracle(g)
    # "tight" mode plants non-tree edges at exactly their path maximum:
    # zero sensitivity, and a query at the threshold itself must survive
    nt = np.flatnonzero(~g.tree_mask)
    tied = nt[oracle.sensitivity_bulk(nt) == 0.0]
    assert len(tied) > 0
    for e in tied:
        assert oracle.entry_threshold(e) == g.w[e]
        assert oracle.survives(e, float(g.w[e]))
        assert brute_survives(g, int(e), float(g.w[e]))


def test_bridges_have_infinite_sensitivity():
    # only 3 extra edges on 30 vertices: most tree edges are uncovered
    g, _ = known_mst_instance("random", 30, extra_m=3, rng=7)
    oracle = build_oracle(g)
    tree_idx = np.flatnonzero(g.tree_mask)
    bridges = [int(e) for e in tree_idx
               if not np.isfinite(oracle.sensitivity(e))]
    assert bridges, "instance should contain bridges"
    for e in bridges:
        assert oracle.replacement_edge(e) is None
        assert oracle.survives(e, 1e12)
        assert brute_survives(g, e, 1e12)


def test_replacement_edge_is_cheapest_cover():
    g, _ = known_mst_instance("random", 18, extra_m=40, rng=11)
    r = mst_sensitivity(g)
    oracle = SensitivityOracle.from_result(g, r)
    tu, tv, tw = g.tree_edges()
    tree = RootedTree.from_edges(g.n, tu, tv, tw, root=r.root)
    nt_idx = np.flatnonzero(~g.tree_mask)

    def covers(f, child) -> bool:
        au = tree.is_ancestor(np.array([child]), np.array([g.u[f]]))[0]
        av = tree.is_ancestor(np.array([child]), np.array([g.v[f]]))[0]
        return bool(au) != bool(av)

    for e in np.flatnonzero(g.tree_mask):
        child = int(g.u[e] if r.parent[g.u[e]] == g.v[e] else g.v[e])
        cover_ws = [g.w[f] for f in nt_idx if covers(f, child)]
        f = oracle.replacement_edge(int(e))
        if not cover_ws:
            assert f is None
            continue
        assert f is not None and not g.tree_mask[f]
        assert covers(f, child)
        assert g.w[f] == min(cover_ws) == oracle.threshold[e]
        # pricing e past its threshold really swaps in an edge of that weight
        w2 = g.w.copy()
        w2[e] = oracle.threshold[e] + 1.0
        new_mst, new_total = kruskal_mst(g.with_weights(w2))
        old_tree_sum = g.w[g.tree_mask].sum()
        expected = old_tree_sum - g.w[e] + oracle.threshold[e]
        assert np.isclose(new_total, expected, rtol=1e-9, atol=1e-9)
        assert e not in set(new_mst.tolist())


def test_bulk_agrees_with_point_queries():
    g, _ = known_mst_instance("binary", 63, extra_m=120, rng=13)
    oracle = build_oracle(g)
    rng = np.random.default_rng(42)
    edges = rng.integers(0, g.m, size=500)
    weights = rng.uniform(-1.0, 3.0, size=500)
    bulk = oracle.survives_bulk(edges, weights)
    point = np.array([oracle.survives(int(e), float(x))
                      for e, x in zip(edges, weights)])
    np.testing.assert_array_equal(bulk, point)
    np.testing.assert_array_equal(oracle.sensitivity_bulk(edges),
                                  g.w[edges] * 0 + oracle.sens[edges])


def test_query_validation_errors():
    g, _ = known_mst_instance("random", 12, extra_m=10, rng=1)
    oracle = build_oracle(g)
    tree_e = int(np.flatnonzero(g.tree_mask)[0])
    nontree_e = int(np.flatnonzero(~g.tree_mask)[0])
    with pytest.raises(ValidationError):
        oracle.replacement_edge(nontree_e)
    with pytest.raises(ValidationError):
        oracle.entry_threshold(tree_e)
    with pytest.raises(IndexError):
        oracle.survives(g.m, 1.0)
    with pytest.raises(IndexError):
        oracle.survives_bulk([0, -1], [1.0, 1.0])
    with pytest.raises(ValidationError):
        oracle.survives_bulk([0, 1], [1.0])


def test_oracle_rejects_foreign_result():
    g1, _ = known_mst_instance("random", 20, extra_m=30, rng=1)
    g2, _ = known_mst_instance("random", 20, extra_m=30, rng=2)
    r1 = mst_sensitivity(g1)
    with pytest.raises(ValidationError):
        SensitivityOracle.from_result(g2, r1)


def test_save_load_roundtrip(tmp_path):
    g, _ = known_mst_instance("caterpillar", 40, extra_m=80, rng=3)
    oracle = build_oracle(g)
    path = tmp_path / "oracle.npz"
    oracle.save(path)
    back = SensitivityOracle.load(path)
    assert back.precompute_rounds == oracle.precompute_rounds
    rng = np.random.default_rng(0)
    edges = rng.integers(0, g.m, 200)
    weights = rng.uniform(0, 2, 200)
    np.testing.assert_array_equal(oracle.survives_bulk(edges, weights),
                                  back.survives_bulk(edges, weights))
    np.testing.assert_array_equal(oracle.cover_edge, back.cover_edge)


def test_oracle_from_rehydrated_result(tmp_path):
    """SensitivityResult.save → load → oracle must answer identically."""
    g, _ = known_mst_instance("random", 30, extra_m=45, rng=9)
    r = mst_sensitivity(g)
    path = tmp_path / "sens.npz"
    r.save(path)
    r2 = SensitivityResult.load(path)
    o1 = SensitivityOracle.from_result(g, r)
    o2 = SensitivityOracle.from_result(g, r2)
    np.testing.assert_array_equal(o1.threshold, o2.threshold)
    np.testing.assert_array_equal(o1.cover_edge, o2.cover_edge)
    assert r2.rounds == r.rounds
    assert r2.report.rounds_total == r.report.rounds_total
    assert r2.report.rounds_by_phase == r.report.rounds_by_phase


def test_mmap_load_matches_built_oracle(tmp_path):
    """Uncompressed save + mmap load: zero-copy views, identical answers."""
    g, _ = known_mst_instance("random", 60, extra_m=120, rng=6)
    oracle = build_oracle(g)
    path = tmp_path / "oracle-mmap.npz"
    oracle.save(path, compressed=False)
    mapped = SensitivityOracle.load(path, mmap_mode="r")
    # arrays are genuinely memory-mapped, not copies
    assert isinstance(mapped.threshold, np.memmap) \
        or isinstance(mapped.threshold.base, np.memmap)
    assert not mapped.w.flags.writeable
    # loaded-vs-built answer identity across every query type
    rng = np.random.default_rng(4)
    edges = rng.integers(0, g.m, 500)
    weights = rng.uniform(0, 2, 500)
    np.testing.assert_array_equal(oracle.survives_bulk(edges, weights),
                                  mapped.survives_bulk(edges, weights))
    np.testing.assert_array_equal(oracle.sensitivity_bulk(edges),
                                  mapped.sensitivity_bulk(edges))
    tree_idx = np.flatnonzero(g.tree_mask)
    nt_idx = np.flatnonzero(~g.tree_mask)
    np.testing.assert_array_equal(oracle.replacement_edge_bulk(tree_idx),
                                  mapped.replacement_edge_bulk(tree_idx))
    np.testing.assert_array_equal(oracle.entry_threshold_bulk(nt_idx),
                                  mapped.entry_threshold_bulk(nt_idx))
    for e in [int(tree_idx[0]), int(nt_idx[0])]:
        assert mapped.sensitivity(e) == oracle.sensitivity(e)
    # N consumers map the same file (the shard-worker sharing story)
    other = SensitivityOracle.load(path, mmap_mode="r")
    np.testing.assert_array_equal(mapped.threshold, other.threshold)


def test_mmap_load_of_compressed_snapshot_falls_back(tmp_path):
    g, _ = known_mst_instance("binary", 40, extra_m=60, rng=7)
    oracle = build_oracle(g)
    path = tmp_path / "oracle-z.npz"
    oracle.save(path)  # compressed (the default)
    back = SensitivityOracle.load(path, mmap_mode="r")  # eager fallback
    np.testing.assert_array_equal(back.threshold, oracle.threshold)
    np.testing.assert_array_equal(back.cover_edge, oracle.cover_edge)


def test_reprice_patches_weight_and_slack():
    g, _ = known_mst_instance("random", 50, extra_m=100, rng=8)
    oracle = build_oracle(g)
    nt = int(np.flatnonzero(~g.tree_mask)[0])
    thr = oracle.entry_threshold(nt)
    oracle.reprice(nt, thr + 0.5)
    assert oracle.w[nt] == thr + 0.5
    assert oracle.sensitivity(nt) == 0.5
    tree = int(np.flatnonzero(g.tree_mask)[0])
    mc = float(oracle.threshold[tree])
    oracle.reprice(tree, mc - 0.25)
    assert abs(oracle.sensitivity(tree) - 0.25) < 1e-12


def test_reprice_thaws_readonly_arrays(tmp_path):
    g, _ = known_mst_instance("random", 40, extra_m=80, rng=9)
    oracle = build_oracle(g)
    path = tmp_path / "oracle-ro.npz"
    oracle.save(path, compressed=False)
    mapped = SensitivityOracle.load(path, mmap_mode="r")
    nt = int(np.flatnonzero(~g.tree_mask)[0])
    thr = mapped.entry_threshold(nt)
    mapped.reprice(nt, thr + 1.0)  # copy-on-write, not a crash
    assert mapped.sensitivity(nt) == 1.0
    assert mapped.w.flags.writeable
    # thresholds stay mapped (only w/sens thawed)
    assert not mapped.threshold.flags.writeable


# -- cover_edge tie rule against a brute-force reference ----------------------


def _tie_instance(rng, n, shape, extra):
    """A flagged MST with small integer weights (ties everywhere).

    Non-tree edges weigh their tree-path maximum or one more, so the
    tree stays minimal; labels and edge order are shuffled so neither
    the root nor the input order lines up with the tree.
    """
    if shape == "star":
        par = [0] * n
    elif shape == "backbone":  # a deep path with a few hairs
        spine = max(1, (3 * n) // 4)
        par = [0] + list(range(spine - 1)) + \
            [int(rng.integers(0, spine)) for _ in range(n - spine)]
    else:
        par = [0] + [int(rng.integers(0, i)) for i in range(1, n)]
    pw = [0] + [int(rng.integers(1, 4)) for _ in range(1, n)]

    def path_edges(a, b):  # child endpoints of the tree path a..b
        up_a, x = [], a
        while x != 0:
            up_a.append(x)
            x = par[x]
        seen = set(up_a + [0])
        up_b, y = [], b
        while y not in seen:
            up_b.append(y)
            y = par[y]
        return up_a[:up_a.index(y)] if y != 0 else up_a, up_b

    edges = [(i, par[i], float(pw[i])) for i in range(1, n)]
    for _ in range(extra if n > 1 else 0):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        ea, eb = path_edges(a, b)
        top = max(pw[c] for c in ea + eb)
        edges.append((a, b, float(top + int(rng.integers(0, 2)))))
    label = rng.permutation(n)
    order = rng.permutation(len(edges))
    u = np.array([label[edges[i][0]] for i in order], dtype=np.int64)
    v = np.array([label[edges[i][1]] for i in order], dtype=np.int64)
    w = np.array([edges[i][2] for i in order], dtype=np.float64)
    tree = np.array([i < n - 1 for i in order], dtype=bool)
    return WeightedGraph(n=n, u=u, v=v, w=w, tree_mask=tree)


def _reference_cover(g, parent, nontree_index):
    """Per tree edge: the covering non-tree edge of least (weight,
    position in ``nontree_index``), by walking parent pointers."""
    par = [int(p) for p in parent]

    def ancestors(x):
        out = [x]
        while par[x] != x:
            x = par[x]
            out.append(x)
        return out

    ref = np.full(g.m, -1, dtype=np.int64)
    for e in np.flatnonzero(g.tree_mask):
        a, b = int(g.u[e]), int(g.v[e])
        child = a if par[a] == b else b
        best = None
        for pos, f in enumerate(nontree_index):
            inside = [child in ancestors(int(x)) for x in (g.u[f], g.v[f])]
            if inside[0] != inside[1]:
                cand = (float(g.w[f]), pos, int(f))
                best = cand if best is None or cand < best else best
        if best is not None:
            ref[e] = best[2]
    return ref


@pytest.mark.parametrize("seed", range(24))
def test_cover_edge_tie_rule_matches_brute_force(seed):
    rng = np.random.default_rng(900 + seed)
    shape = ("random", "backbone", "star")[seed % 3]
    n = int(rng.integers(2, 34))
    # 0 extra: all bridges; few: mostly bridges; many: dense ties
    extra = (0, int(rng.integers(1, 4)), int(rng.integers(n, 3 * n)))[
        (seed // 3) % 3]
    g = _tie_instance(rng, n, shape, extra)
    r = mst_sensitivity(g)
    oracle = SensitivityOracle.from_result(g, r)
    ref = _reference_cover(g, r.parent, r.nontree_index)
    np.testing.assert_array_equal(oracle.cover_edge, ref)
    mask = np.zeros(g.m, dtype=bool)
    mask[ref[ref >= 0]] = True
    np.testing.assert_array_equal(oracle.covering_edges(), mask)
