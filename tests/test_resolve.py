"""Resolver traversal semantics and the exact-cover guarantee."""

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from cellforest import parallel
from cellforest.classify import ClassProbs
from cellforest.merging import MergeForest
from cellforest.parallel import concurrent_map
from cellforest.resolve import (
    ClassifierError,
    Resolution,
    finalize,
    resolution_report,
    resolve,
    resolve_trivial,
)
from cellforest.volume import LabelVolume


def probs_for(table, default=(0.1, 0.8, 0.1)):
    """classify_fn backed by a dict, recording every query."""
    queried = []

    def classify(node_id):
        queried.append(node_id)
        return ClassProbs(*table.get(node_id, default))

    return classify, queried


def chain_forest():
    """Two leaves merged once: nodes 1, 2 under root 3."""
    forest = MergeForest(2)
    forest.add_leaf(1, 10, 10.0)
    forest.add_leaf(2, 12, 12.0)
    forest.add_merge(3, 1, 2, 22, 22.0, 0.3)
    forest.roots = [3]
    return forest


def deep_forest():
    """Four leaves, one lopsided tree: ((1+2)+3)+4 -> root 7."""
    forest = MergeForest(4)
    for leaf in (1, 2, 3, 4):
        forest.add_leaf(leaf, 5, 5.0)
    forest.add_merge(5, 1, 2, 10, 10.0, 0.2)
    forest.add_merge(6, 5, 3, 15, 15.0, 0.3)
    forest.add_merge(7, 6, 4, 20, 20.0, 0.4)
    forest.roots = [7]
    return forest


def test_confident_root_accepted_whole():
    forest = chain_forest()
    classify, queried = probs_for({3: (0.1, 0.8, 0.1)})
    res = resolve(forest, classify)
    assert res.selected == [3]
    assert queried == [3]
    assert set(res.probs) == {3}


def test_under_segmented_root_splits_into_leaves():
    forest = chain_forest()
    classify, queried = probs_for({3: (0.7, 0.2, 0.1)})
    res = resolve(forest, classify)
    assert res.selected == [1, 2]
    # leaves are accepted without asking the classifier
    assert queried == [3]
    assert set(res.probs) == {3}


def test_tie_keeps_node_intact():
    forest = chain_forest()
    classify, _ = probs_for({3: (0.4, 0.4, 0.2)})
    res = resolve(forest, classify)
    assert res.selected == [3]


def test_descent_is_depth_first_left_to_right():
    forest = deep_forest()
    under = (0.8, 0.1, 0.1)
    classify, queried = probs_for({7: under, 6: under, 5: under})
    res = resolve(forest, classify)
    assert res.selected == [1, 2, 3, 4]
    assert queried == [7, 6, 5]


def test_partial_descent_keeps_subtrees():
    forest = deep_forest()
    classify, queried = probs_for({7: (0.8, 0.1, 0.1)})
    res = resolve(forest, classify)
    # 6 is kept whole, only the root was split
    assert res.selected == [6, 4]
    assert queried == [7, 6]


def test_multiple_roots_processed_in_sorted_order():
    forest = MergeForest(4)
    for leaf in (1, 2, 3, 4):
        forest.add_leaf(leaf, 5, 5.0)
    forest.add_merge(6, 3, 4, 10, 10.0, 0.2)
    forest.add_merge(5, 1, 2, 10, 10.0, 0.1)
    forest.roots = [6, 5]
    classify, queried = probs_for({6: (0.9, 0.05, 0.05)})
    res = resolve(forest, classify)
    assert res.selected == [5, 3, 4]
    assert queried == [5, 6]


def test_single_leaf_root_needs_no_classifier():
    forest = MergeForest(1)
    forest.add_leaf(1, 3, 3.0)
    forest.roots = [1]

    def classify(node_id):
        raise AssertionError("must not be called")

    res = resolve(forest, classify)
    assert res.selected == [1]
    assert res.probs == {}


def test_classifier_failure_wrapped_with_node_id():
    forest = chain_forest()

    def classify(node_id):
        raise RuntimeError("boom")

    with pytest.raises(ClassifierError, match="node 3"):
        resolve(forest, classify)


def test_trivial_resolution_is_sorted_roots():
    forest = deep_forest()
    res = resolve_trivial(forest)
    assert res.selected == [7]
    forest.roots = [9, 2]
    assert resolve_trivial(forest).selected == [2, 9]


# ---------------------------------------------------------------------------
# exact-cover property on random forests


def random_forest(rng, n_leaves):
    forest = MergeForest(n_leaves)
    for leaf in range(1, n_leaves + 1):
        forest.add_leaf(leaf, 1, 1.0)
    alive = list(range(1, n_leaves + 1))
    next_id = n_leaves + 1
    while len(alive) > 1 and rng.random() < 0.8:
        i, j = rng.choice(len(alive), size=2, replace=False)
        a, b = alive[int(i)], alive[int(j)]
        count = forest.nodes[a].voxel_count + forest.nodes[b].voxel_count
        forest.add_merge(next_id, a, b, count, float(count), float(rng.random()))
        alive = [x for x in alive if x not in (a, b)] + [next_id]
        next_id += 1
    forest.roots = sorted(alive)
    return forest


def test_random_forests_always_resolve_to_exact_leaf_cover():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n_leaves = int(rng.integers(1, 12))
        forest = random_forest(rng, n_leaves)

        def classify(node_id, rng=rng):
            p = rng.dirichlet((1.0, 1.0, 1.0))
            return ClassProbs(*p)

        res = resolve(forest, classify)
        covered = []
        for node_id in res.selected:
            covered.extend(forest.leaves_under(node_id))
        assert sorted(covered) == list(range(1, n_leaves + 1))
        # only internal nodes that were reached are in the probs map
        assert all(forest.nodes[n].children for n in res.probs)


def test_always_under_classifier_returns_all_leaves():
    rng = np.random.default_rng(78)
    for _ in range(20):
        forest = random_forest(rng, int(rng.integers(2, 10)))
        classify, _ = probs_for({}, default=(1.0, 0.0, 0.0))
        res = resolve(forest, classify)
        assert sorted(res.selected) == list(range(1, forest.n_leaves + 1))


def test_never_under_classifier_returns_roots():
    rng = np.random.default_rng(79)
    for _ in range(20):
        forest = random_forest(rng, int(rng.integers(2, 10)))
        classify, _ = probs_for({}, default=(0.0, 0.5, 0.5))
        res = resolve(forest, classify)
        assert sorted(res.selected) == forest.roots


# ---------------------------------------------------------------------------
# waves on concurrent workers


def recording_classifier(table):
    """classify_fn backed by a dict; records queried nodes and thread ids."""
    queried, threads = [], set()

    def classify(node_id):
        time.sleep(0.0005)  # long enough for the helper to take items
        queried.append(node_id)
        threads.add(threading.get_ident())
        return ClassProbs(*table[node_id])

    return classify, queried, threads


def test_concurrent_waves_match_in_thread_waves(two_cpus):
    rng = np.random.default_rng(80)
    seen_threads = set()
    for _ in range(200):
        forest = random_forest(rng, int(rng.integers(1, 30)))
        table = {n: rng.dirichlet((1.2, 1.2, 1.2)) for n in forest.nodes}
        classify, queried, _ = recording_classifier(table)
        alone = resolve(forest, classify)
        classify, queried_2, threads = recording_classifier(table)
        both = resolve(forest, classify, concurrent_map)
        assert both.selected == alone.selected
        assert list(both.probs) == list(alone.probs)
        assert all(both.probs[n] == alone.probs[n] for n in alone.probs)
        assert sorted(queried_2) == sorted(queried) == sorted(alone.probs)
        seen_threads |= threads
    assert len(seen_threads) > 1  # helpers took items
    assert two_cpus.threads == 4 and set(two_cpus.log) == {1, 4}


def test_concurrent_map_takes_each_item_once_under_contention(cpus, fake_blas):
    # more workers than cores and a short switch interval: a lost update to
    # the shared iterator or the result list would show as a wrong result
    cpus(8)
    blas = fake_blas
    calls = Counter()

    def square(item):
        calls[item] += 1
        return item * item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        for _ in range(20):
            assert concurrent_map(square, range(500)) == [i * i for i in range(500)]
        assert time.perf_counter() - t0 < 60
    finally:
        sys.setswitchinterval(interval)
    assert calls == Counter({i: 20 for i in range(500)})
    assert blas.threads == 4 and blas.log == [1, 4] * 20


@pytest.mark.parametrize("fails", [False, True])
def test_nested_concurrent_map_runs_inline_on_the_item_thread(cpus, fake_blas, fails):
    # a pool started inside an item would put three threads on two CPUs
    cpus(2)
    threads, both = set(), threading.Barrier(2, timeout=10)  # each thread takes one item

    def outer(item):
        both.wait()
        here = (threading.get_ident(), threading.active_count(), fake_blas.threads)
        assert here[2] == 1 and parallel.workers(8) == 1
        inside = concurrent_map(lambda i: (threading.get_ident(), threading.active_count(),
                                           fake_blas.threads, parallel.workers(8), i * i),
                                [item, item + 1])
        assert inside == [(*here, 1, item * item), (*here, 1, (item + 1) ** 2)]
        assert fake_blas.threads == 1 and parallel.workers(8) == 1
        threads.add(here[0])
        if fails and item == 1:
            raise RuntimeError("boom")
        return [r[-1] for r in inside]

    assert parallel.workers(8) == 2
    if fails:
        with pytest.raises(RuntimeError, match="boom"):
            concurrent_map(outer, [0, 1])
    else:
        assert concurrent_map(outer, [0, 1]) == [[0, 1], [1, 4]]
    assert len(threads) == 2
    assert parallel.workers(8) == 2  # the calling thread's items are done
    assert fake_blas.threads == 4 and fake_blas.log == [1, 4]  # one pin, by the outer call


def failing_forest():
    """Root 7 = (6 = (1, 2), 3) and root 8 = (4, 5)."""
    forest = MergeForest(5)
    for leaf in (1, 2, 3, 4, 5):
        forest.add_leaf(leaf, 5, 5.0)
    forest.add_merge(6, 1, 2, 10, 10.0, 0.1)
    forest.add_merge(7, 6, 3, 15, 15.0, 0.2)
    forest.add_merge(8, 4, 5, 10, 10.0, 0.3)
    forest.roots = [7, 8]
    return forest


@pytest.mark.parametrize("map_fn", [map, concurrent_map])
@pytest.mark.parametrize("failing, named", [({7, 8}, 7), ({6, 8}, 6), ({8}, 8)])
def test_failure_names_the_node_the_descent_reaches_first(two_cpus, map_fn, failing, named):
    # node 6 is asked a wave after node 8, but the descent reaches it first
    def classify(node_id):
        time.sleep(0.001)
        if node_id in failing:
            raise RuntimeError(f"boom {node_id}")
        return ClassProbs(0.8, 0.1, 0.1)

    with pytest.raises(ClassifierError, match=f"node {named}: boom {named}"):
        resolve(failing_forest(), classify, map_fn)
    assert two_cpus.threads == 4


@pytest.mark.parametrize("fails", [False, True])
def test_blas_thread_count_restored_after_resolve(cpus, fails):
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter among the loaded libraries")
    get, put = blas
    cpus(2)
    inside = []

    def classify(node_id):
        inside.append(get())
        if fails:
            raise RuntimeError("boom")
        return ClassProbs(0.8, 0.1, 0.1)

    old = get()
    try:
        put(2)
        if fails:
            with pytest.raises(ClassifierError):
                resolve(failing_forest(), classify, concurrent_map)
        else:
            resolve(failing_forest(), classify, concurrent_map)
        assert get() == 2
    finally:
        put(old)
    # the two roots' wave runs at one BLAS thread; node 6 alone keeps two
    assert inside == [1, 1] if fails else sorted(inside) == [1, 1, 2]


def test_one_worker_without_a_blas_setter(monkeypatch, cpus):
    cpus(2)
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    classify, queried, threads = recording_classifier(
        {n: (0.8, 0.1, 0.1) for n in range(1, 9)}
    )
    res = resolve(failing_forest(), classify, concurrent_map)
    assert res.selected == [1, 2, 3, 4, 5]
    assert threads == {threading.get_ident()}
    assert queried == [7, 8, 6]


# ---------------------------------------------------------------------------
# painting and reporting


def test_finalize_labels_use_selected_node_ids():
    forest = chain_forest()
    labels = np.array([[[1, 1, 2, 2]]], dtype=np.int32)
    sv = LabelVolume(labels, (1.0, 1.0, 1.0))

    whole = finalize(forest, Resolution(selected=[3]), sv)
    assert np.all(whole.labels == 3)

    split = finalize(forest, Resolution(selected=[1, 2]), sv)
    np.testing.assert_array_equal(split.labels, labels)
    assert len(np.unique(split.labels)) == 2


def test_resolution_report_lists_roots_and_summary():
    forest = deep_forest()
    classify, _ = probs_for({7: (0.8, 0.1, 0.1)})
    res = resolve(forest, classify)
    text = resolution_report(forest, res)
    lines = text.strip().split("\n")
    assert lines[0].startswith("root 7:")
    assert "4 [leaf]" in lines[0]
    assert "under=" in lines[0]
    assert lines[-1] == "2 segments from 1 roots (1 nodes split, 2 queried)"


def test_resolution_report_trivial_pass():
    forest = chain_forest()
    res = resolve_trivial(forest)
    text = resolution_report(forest, res)
    assert "root 3: 3" in text
    assert "1 segments from 1 roots (0 nodes split, 0 queried)" in text
