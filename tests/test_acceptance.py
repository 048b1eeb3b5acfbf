"""Release acceptance suite: one test per shipped guarantee.

Every test prints a single PASS/FAIL line with the measured quantity and
elapsed time (written through the capture so it also shows up in plain
`pytest -v` runs), making the log double as the release checklist. Each
guarantee carries a wall-clock budget that is asserted along with the
functional check.
"""

import sys
import time

import numpy as np
import pytest

from cellforest.classify import ClassProbs
from cellforest.cli import main as cli_main, segment
from cellforest.cnn import (
    PARAM_ORDER,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    init_model,
    softmax,
    train,
)
from cellforest.graph import BoundaryStats, RegionGraph, RegionStats, build_region_graph
from cellforest.merging import (
    MergeParams,
    agglomerate,
    feature_boundary,
    feature_sort,
    feature_v_min,
    v_min_from_radius,
)
from cellforest.metrics import match_segments
from cellforest.phantom import (
    PhantomParams,
    generate_patch_dataset,
    generate_phantom,
    membrane_mask,
)
from cellforest.preprocess import gaussian_smooth, iterative_closing
from cellforest.resolve import resolve
from cellforest.volume import LabelVolume, ScalarVolume, read_volume, write_volume
from cellforest.watershed import find_local_minima, seeded_watershed

from checks import assert_incremental_stats_match, forest_leaf_lookup
from oracles import finite_difference_grad, flood_reference
from test_resolve import random_forest


def verdict(ok: bool, label: str, detail: str) -> None:
    """One visible PASS/FAIL line per guarantee, then the hard assert."""
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# --- merge-score formulas -------------------------------------------------


def formula_graph(nodes, edges, voxel_volume=1.0):
    """Hand-built region graph: nodes {id: (count, volume, intensity_sum)},
    edges {(i, j): (pair_count, pair_intensity_sum)}."""
    g = RegionGraph(voxel_volume)
    for nid, (count, volume, isum) in nodes.items():
        g.add_node(nid, RegionStats(count, volume, isum))
    for (i, j), (pc, ps) in edges.items():
        g.edges[(min(i, j), max(i, j))] = BoundaryStats(pc, ps)
        g.adj[i].add(j)
        g.adj[j].add(i)
    return g


def test_merge_formula_suite():
    """Worked examples for the three merge features and the radius-to-volume
    helper agree with hand-computed values to 1e-9."""
    t0 = time.perf_counter()
    p = MergeParams(v_min=10.0, v_max=1e9)
    checks = 0

    # volume of the smallest admissible object from its radius
    assert abs(v_min_from_radius(1.0) - 4.1887902047863905) <= 1e-9
    assert abs(v_min_from_radius(2.0) - 33.510321638291124) <= 1e-9
    with pytest.raises(ValueError):
        v_min_from_radius(0.0)
    checks += 3

    # minimum-volume feature: clamp at 1, linear weighting below, zero limit
    g = formula_graph({1: (1, 20.0, 0.3), 2: (1, 20.0, 0.3)}, {(1, 2): (1, 0.5)})
    assert abs(feature_v_min(1, 2, g, p) - 1.0) <= 1e-9
    g = formula_graph({1: (1, 5.0, 0.3), 2: (1, 20.0, 0.3)}, {(1, 2): (1, 0.4)})
    assert abs(feature_v_min(1, 2, g, p) - 0.2) <= 1e-9
    g = formula_graph({1: (1, 1e-15, 0.3), 2: (1, 20.0, 0.3)}, {(1, 2): (1, 0.9)})
    assert abs(feature_v_min(1, 2, g, p) - 0.0) <= 1e-9
    checks += 3

    # boundary feature: third region supplies the outer wall (mean 0.9);
    # the two candidates average to interior mean 0.3
    def boundary_case(mu_cmn):
        g = formula_graph(
            {1: (1, 20.0, 0.3), 2: (1, 20.0, 0.3), 3: (1, 20.0, 0.5)},
            {(1, 2): (1, mu_cmn), (1, 3): (1, 0.9)},
        )
        return feature_boundary(1, 2, g, p)

    assert abs(boundary_case(0.8) - 1.0) <= 1e-9  # brighter than the wall gap
    assert abs(boundary_case(0.35) - 0.05 / 0.55) <= 1e-9  # interior-like
    assert abs(boundary_case(0.9) - 1.0) <= 1e-9  # degenerate denominator
    checks += 3

    # combined score: fixed points and the engineered (0.6, 0.8) pair
    g = formula_graph({1: (1, 20.0, 0.3), 2: (1, 20.0, 0.3)}, {(1, 2): (1, 0.9)})
    assert abs(feature_sort(1, 2, g, p) - 1.0) <= 1e-9
    g = formula_graph(
        {1: (1, 5.0, 0.0), 2: (1, 5.0, 0.0), 3: (1, 20.0, 0.9)},
        {(1, 2): (1, 0.0), (1, 3): (1, 0.9)},
    )
    assert abs(feature_sort(1, 2, g, p) - 0.0) <= 1e-9
    g = formula_graph(
        # smaller volume 8 -> 0.8 of v_min; boundary 0.75 vs interior 0.35
        # and outer wall 0.25 -> features (0.6, 0.8)
        {1: (1, 8.0, 0.35), 2: (1, 20.0, 0.35), 3: (1, 20.0, 0.5)},
        {(1, 2): (1, 0.75), (1, 3): (1, 0.25)},
    )
    assert abs(feature_v_min(1, 2, g, p) - 0.6) <= 1e-9
    assert abs(feature_boundary(1, 2, g, p) - 0.8) <= 1e-9
    assert abs(feature_sort(1, 2, g, p) - 0.7071067811865476) <= 1e-9
    checks += 3

    elapsed = time.perf_counter() - t0
    verdict(
        elapsed < 1.0,
        "merge formulas",
        f"{checks} worked examples within 1e-9, {elapsed:.2f}s (budget 1s)",
    )


# --- watershed vs brute-force flood ---------------------------------------


def test_watershed_matches_flood_oracle():
    """Production watershed equals the quadratic reference flood on random
    volumes up to 8x8x8, including heavy plateau/tie cases."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    n_volumes = 0
    while n_volumes < 100:
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        if n_volumes % 2:
            data = rng.integers(0, 6, size=dims).astype(np.float64) / 5.0
        else:
            data = np.round(rng.random(dims), 2)
        v = ScalarVolume(data)
        seeds = find_local_minima(v)
        out = seeded_watershed(v, seeds)
        np.testing.assert_array_equal(out.labels, flood_reference(data, seeds.seed_labels))
        n_volumes += 1
    elapsed = time.perf_counter() - t0
    verdict(
        elapsed < 30.0,
        "watershed vs flood oracle",
        f"{n_volumes} random volumes exact, {elapsed:.1f}s (budget 30s)",
    )


# --- incremental agglomeration statistics ---------------------------------


def test_agglomeration_stats_match_rebuild_after_every_merge():
    """During agglomeration of random phantom decompositions, every alive
    region and edge statistic equals a from-scratch rebuild of the current
    labeling after every single merge."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    decompositions = 0
    merges_audited = 0
    for _ in range(20):
        p = PhantomParams(
            dims=(32, 32, 32),
            n_cells=int(rng.integers(4, 11)),
            membrane_width=1,
            noise_sigma=float(rng.uniform(0.01, 0.04)),
            blur_sigma=float(rng.uniform(0.3, 0.8)),
            seed=int(rng.integers(1_000_000)),
        )
        img, _ = generate_phantom(p)
        # gentle smoothing keeps plenty of basins; a high v_min then forces
        # a long forced-merge phase so the audit sees many increments
        pre = iterative_closing(gaussian_smooth(img, (0.7, 0.7, 0.7)), 1)
        sv = seeded_watershed(pre, find_local_minima(pre))
        graph = build_region_graph(sv, pre)

        audited = [0]

        def observer(g, forest, merged_id, sv=sv, pre=pre, audited=audited):
            assert_incremental_stats_match(
                g, sv, pre.data, leaf_of=forest_leaf_lookup(forest)
            )
            audited[0] += 1

        agglomerate(graph, MergeParams(v_min=6000.0, v_max=30000.0), observer=observer)
        decompositions += 1
        merges_audited += audited[0]
    elapsed = time.perf_counter() - t0
    verdict(
        decompositions >= 20 and merges_audited >= 500 and elapsed < 120.0,
        "incremental merge statistics",
        f"{decompositions} decompositions, {merges_audited} merges audited, "
        f"{elapsed:.0f}s (budget 120s)",
    )


# --- supervoxel purity on dense phantoms ----------------------------------


def test_supervoxels_stay_inside_ground_truth_cells():
    """Watershed over-segments but must not straddle cells: per phantom, at
    least 99% of supervoxels keep at least 95% of their cell-interior volume
    within a single ground-truth cell.

    Purity is measured over interior voxels. Membrane voxels sit between
    cells — the ground truth splits each shared wall down the middle only as
    bookkeeping, and the flood assigns wall voxels to whichever adjacent
    basin crests first — so wall attribution says nothing about whether a
    supervoxel bridges two cells. A supervoxel with no interior voxels
    counts as pure."""
    t0 = time.perf_counter()
    fractions_ok = []
    worst_svx = 1.0
    for seed in (101, 102, 103, 104, 105):
        p = PhantomParams(
            dims=(96, 96, 96),
            n_cells=40,
            membrane_width=2,
            attenuation=0.99,
            noise_sigma=0.03,
            blur_sigma=0.5,
            seed=seed,
        )
        img, truth = generate_phantom(p)
        # the merge bounds do not change the supervoxels
        sv = segment(img, MergeParams(v_min=5000.0, v_max=24000.0)).sv

        n_sv = int(sv.labels.max())
        interior = ~membrane_mask(truth.labels, p.membrane_width)
        s = sv.labels[interior].ravel().astype(np.int64)
        t = truth.labels[interior].ravel().astype(np.int64)
        n_truth = int(t.max()) + 1
        overlap = np.bincount(s * n_truth + t, minlength=(n_sv + 1) * n_truth)
        sizes = np.bincount(s, minlength=n_sv + 1)
        best = np.zeros(n_sv + 1, dtype=np.int64)
        np.maximum.at(best, np.arange(overlap.size) // n_truth, overlap)
        purity = np.ones(n_sv + 1)
        nonempty = sizes > 0
        purity[nonempty] = best[nonempty] / sizes[nonempty]
        purity = purity[1:]
        fractions_ok.append(float((purity >= 0.95).mean()))
        worst_svx = min(worst_svx, float(purity.min()))
    elapsed = time.perf_counter() - t0
    worst = min(fractions_ok)
    verdict(
        worst >= 0.99 and elapsed < 180.0,
        "supervoxel purity",
        f"worst phantom {worst * 100:.2f}% of supervoxels >=95% inside one cell "
        f"(least pure supervoxel {worst_svx:.3f}), {elapsed:.0f}s (budget 180s)",
    )


# --- segmentation quality ladder ------------------------------------------

LADDER_PHANTOM = dict(
    dims=(64, 64, 64),
    n_cells=25,
    membrane_width=2,
    attenuation=0.99,
    noise_sigma=0.05,
    blur_sigma=0.6,
)
LADDER_SEEDS = (11, 12, 13, 14, 15)
LADDER_MERGE = dict(v_min=5000.0, v_max=24000.0)


def test_fscore_improves_at_each_pipeline_stage():
    """On fixed phantoms the mean F-score strictly climbs the ladder:
    raw watershed < merge-forest roots < classifier-corrected roots, and
    the merged stage alone already reaches F >= 0.85."""
    t0 = time.perf_counter()
    rows = []
    for seed in LADDER_SEEDS:
        img, truth = generate_phantom(PhantomParams(seed=seed, **LADDER_PHANTOM))
        params = MergeParams(**LADDER_MERGE)
        run = segment(img, params, classifier="heuristic")
        # the same forest, cut at its roots
        fused = segment(None, params, pre=run.pre, sv=run.sv, forest=run.forest).labels

        f_watershed = match_segments(run.sv, truth).f_score
        f_fused = match_segments(fused, truth).f_score
        f_corrected = match_segments(run.labels, truth).f_score
        rows.append((f_watershed, f_fused, f_corrected))
    mean = np.mean(rows, axis=0)
    elapsed = time.perf_counter() - t0
    verdict(
        mean[0] < mean[1] < mean[2] and mean[1] >= 0.85 and elapsed < 600.0,
        "pipeline F-score ladder",
        f"mean F watershed {mean[0]:.3f} < merged {mean[1]:.3f} < corrected "
        f"{mean[2]:.3f}, {elapsed:.0f}s (budget 600s)",
    )


# --- network numerics and training ----------------------------------------

TRAIN_PHANTOM = dict(
    dims=(48, 48, 48),
    n_cells=12,
    membrane_width=1,
    noise_sigma=0.0,
    blur_sigma=0.5,
    seed=42,
)
TRAIN_CONFIG = dict(learning_rate=5e-3, batch_size=2, epochs=3, keep_prob=1.0, seed=1)


def test_network_numerics_and_training():
    """Analytic gradients match finite differences on every layer type,
    softmax is normalized and shift invariant, and a short training run on
    the 60-patch synthetic set at least halves the cross-entropy."""
    t0 = time.perf_counter()

    # gradients: small model with the same layer types as the production one
    model = init_model(input_size=4, conv_channels=(2, 3), fc_units=5, kernel_size=3, seed=11)
    rng = np.random.default_rng(7)
    x = rng.random((2, 4, 4, 4, 1))
    classes = np.array([0, 2])

    def loss_and_grads(keep_prob):
        def f():
            drop = np.random.default_rng(99) if keep_prob < 1.0 else None
            logits, cache = forward(model, x, keep_prob=keep_prob, rng=drop)
            loss, dlogits = cross_entropy(logits, classes)
            grads = backward(model, cache, dlogits)
            return loss, grads

        return f

    worst_rel = 0.0
    for keep_prob in (1.0, 0.5):
        f = loss_and_grads(keep_prob)
        _, grads = f()
        for name in PARAM_ORDER:
            num = finite_difference_grad(lambda: f()[0], model.params[name])
            ana = grads[name]
            scale = max(np.abs(num).max(), np.abs(ana).max(), 1e-8)
            worst_rel = max(worst_rel, float(np.abs(num - ana).max() / scale))
    grads_ok = worst_rel < 1e-4

    # softmax contracts
    logits = np.random.default_rng(3).normal(size=(40, 3)) * 30.0
    probs = softmax(logits)
    norm_err = float(np.abs(probs.sum(axis=1) - 1.0).max())
    shift_err = float(np.abs(softmax(logits + 123.456) - probs).max())
    case_err = float(
        np.abs(softmax(np.log([[1.0, 2.0, 7.0]])) - [[0.1, 0.2, 0.7]]).max()
    )
    softmax_ok = norm_err < 1e-6 and shift_err < 1e-6 and case_err < 1e-6

    # training on the 60-patch synthetic set
    train_params = PhantomParams(**TRAIN_PHANTOM)
    patches, class_names = generate_patch_dataset(
        train_params, *generate_phantom(train_params), 20
    )
    x_train = np.stack([p.data for p in patches])
    y_train = np.array([("under", "correct", "over").index(c) for c in class_names])
    _, trace = train(x_train, y_train, TrainConfig(**TRAIN_CONFIG))
    drop = 1.0 - trace[-1] / trace[0]
    train_ok = len(x_train) == 60 and drop >= 0.5

    # determinism per seed on a short run over a two-per-class subset
    short = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=1, keep_prob=0.8, seed=5)
    subset = [0, 1, 20, 21, 40, 41]
    _, t1 = train(x_train[subset], y_train[subset], short)
    _, t2 = train(x_train[subset], y_train[subset], short)
    determinism_ok = bool(np.array_equal(t1, t2))

    elapsed = time.perf_counter() - t0
    verdict(
        grads_ok and softmax_ok and train_ok and determinism_ok and elapsed < 300.0,
        "network numerics and training",
        f"max grad rel err {worst_rel:.2e}, softmax err {max(norm_err, shift_err, case_err):.1e}, "
        f"loss drop {drop * 100:.0f}%, deterministic={determinism_ok}, "
        f"{elapsed:.0f}s (budget 300s)",
    )


# --- resolver replay -------------------------------------------------------


def replay_descent(forest, cached):
    """Independent re-implementation of the descent rule: walk each root,
    split a node only when its cached split probability strictly beats
    both alternatives, leaves always accepted."""
    selected, queried = [], []
    for root in sorted(forest.roots):
        stack = [root]
        while stack:
            nid = stack.pop()
            node = forest.nodes[nid]
            if node.children is None:
                selected.append(nid)
                continue
            p = cached[nid]  # KeyError here means the sets diverged
            queried.append(nid)
            if p.p_under > p.p_correct and p.p_under > p.p_over:
                stack.extend(node.children)
            else:
                selected.append(nid)
    return selected, queried


def test_resolver_replay_on_random_forests():
    """On random merge forests the resolver's selection is an exact leaf
    cover and matches an independent replay of the descent rule from the
    cached probabilities."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    n_forests = 0
    while n_forests < 200:
        n_leaves = int(rng.integers(1, 40))
        forest = random_forest(rng, n_leaves)
        cached = {}

        def classify(node_id, cached=cached, rng=rng):
            cached[node_id] = ClassProbs(*rng.dirichlet((1.2, 1.2, 1.2)))
            return cached[node_id]

        res = resolve(forest, classify)

        covered = sorted(
            leaf for nid in res.selected for leaf in forest.leaves_under(nid)
        )
        assert covered == list(range(1, n_leaves + 1))

        selected, queried = replay_descent(forest, cached)
        assert sorted(res.selected) == sorted(selected)
        assert sorted(res.probs) == sorted(queried)
        assert set(res.probs) == set(cached)
        n_forests += 1
    elapsed = time.perf_counter() - t0
    verdict(
        elapsed < 10.0,
        "resolver replay",
        f"{n_forests} random forests, exact covers and descent replay, "
        f"{elapsed:.1f}s (budget 10s)",
    )


# --- persistence round-trips and end-to-end determinism --------------------


def test_volume_roundtrip_and_run_determinism(tmp_path):
    """Volume files survive write/read/write byte-identically for every
    supported element type, and two full segmentation runs on the same
    input produce bit-identical artifacts."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    cases = {
        "u8": ScalarVolume(rng.integers(0, 256, (5, 4, 3)).astype(np.uint8), (0.5, 1.0, 2.0)),
        "u16": ScalarVolume(rng.integers(0, 65536, (3, 3, 3)).astype(np.uint16)),
        "u32": LabelVolume(rng.integers(0, 9, (4, 4, 4)).astype(np.uint32)),
        "f32": ScalarVolume(rng.random((4, 5, 6)).astype(np.float32)),
        "f64": ScalarVolume(rng.random((3, 4, 5))),  # stored as f32
    }
    for name, vol in cases.items():
        first = tmp_path / f"{name}_a.mvol.json"
        second = tmp_path / f"{name}_b.mvol.json"
        write_volume(vol, str(first))
        loaded = read_volume(str(first))
        write_volume(loaded, str(second))
        assert first.read_text() != ""
        assert (tmp_path / f"{name}_a.raw").read_bytes() == (
            tmp_path / f"{name}_b.raw"
        ).read_bytes()
        reread = read_volume(str(second))
        arr = vol.labels if isinstance(vol, LabelVolume) else vol.data
        out = reread.labels if isinstance(reread, LabelVolume) else reread.data
        np.testing.assert_array_equal(out, arr.astype(out.dtype))
        assert reread.spacing == vol.spacing

    synth_dir = tmp_path / "synth"
    synth_dir.mkdir()
    rc = cli_main(
        [
            "synth",
            "--output-prefix",
            str(synth_dir / "ph"),
            "--dims",
            "48,48,48",
            "--n-cells",
            "10",
            "--noise-sigma",
            "0.02",
            "--blur-sigma",
            "0.5",
            "--seed",
            "77",
        ]
    )
    assert rc == 0
    artifacts = ("labels.mvol.json", "labels.raw", "forest.txt", "report.txt")
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        rc = cli_main(
            [
                "segment",
                str(synth_dir / "ph.image.mvol.json"),
                "--output-prefix",
                str(out_dir / "seg"),
                "--v-min-um3",
                "400",
                "--v-max-um3",
                "20000",
                "--classifier",
                "heuristic",
            ]
        )
        assert rc == 0
        outputs.append([(out_dir / f"seg.{a}").read_bytes() for a in artifacts])
    identical = all(a == b for a, b in zip(*outputs))
    elapsed = time.perf_counter() - t0
    verdict(
        identical and elapsed < 120.0,
        "round-trips and determinism",
        f"{len(cases)} element types byte-stable, 2 runs bit-identical, "
        f"{elapsed:.0f}s (budget 120s)",
    )
