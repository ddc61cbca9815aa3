import random

import pytest
from hypothesis import given, strategies as st

from cpl.memory import (
    MemoryStore,
    cross_reference,
    load_memory_dir,
    predict,
    save_scene,
)

from genhelpers import make_store_entries, predict_oracle, vote_oracle


def store_with(entries):
    store = MemoryStore()
    for scene_id, features in entries.items():
        store.store_scene(scene_id, features)
    return store


def test_store_grows_by_one():
    store = MemoryStore()
    store.store_scene("s1", {"Pot", "Water"})
    assert len(store) == 1


def test_duplicate_id_rejected():
    store = MemoryStore()
    store.store_scene("s1", {"Pot"})
    with pytest.raises(ValueError):
        store.store_scene("s1", {"Water"})


def test_empty_features_rejected():
    with pytest.raises(ValueError):
        MemoryStore().store_scene("s1", set())


def test_store_many():
    store = MemoryStore()
    for i in range(100):
        store.store_scene(f"s{i}", {f"f{i}"})
    assert len(store) == 100


def test_cross_reference_example():
    store = store_with({"s1": {"A", "B"}, "s2": {"A", "C"}})
    assert cross_reference(store, {"A"}) == {"A": 2, "B": 1, "C": 1}


def test_cross_reference_empty_store():
    assert cross_reference(MemoryStore(), {"A"}) == {}


def test_unmatched_feature_contributes_nothing():
    store = store_with({"s1": {"A", "B"}})
    assert cross_reference(store, {"Z"}) == {}


def test_entry_votes_once_per_matching_input():
    store = store_with({"s1": {"A", "B"}})
    assert cross_reference(store, {"A", "B"}) == {"A": 2, "B": 2}


def test_predict_example_with_legal():
    store = store_with({"s1": {"A", "B"}, "s2": {"A", "B"}, "s3": {"A", "C"}})
    prediction = predict(store, {"A"}, legal={"B", "C"}, k=1)
    assert [(f.feature, f.votes) for f in prediction] == [("B", 2)]


def test_predict_empty_legal_set():
    store = store_with({"s1": {"A", "B"}})
    assert predict(store, {"A"}, legal=set(), k=3) == ()


def test_predict_without_legal():
    store = store_with({"s1": {"A", "B"}, "s2": {"A", "B"}, "s3": {"A", "C"}})
    prediction = predict(store, {"A"}, k=2)
    assert [(f.feature, f.votes) for f in prediction] == [
        ("B", 2), ("C", 1)]


def test_predict_excludes_inputs_and_respects_legal():
    store = store_with({"s1": {"A", "B", "C"}})
    prediction = predict(store, {"A"}, legal={"A", "B"}, k=5)
    names = [f.feature for f in prediction]
    assert "A" not in names
    assert set(names) <= {"A", "B"}


def test_predict_requires_positive_k():
    with pytest.raises(ValueError):
        predict(MemoryStore(), {"A"}, k=0)


def test_memory_dir_round_trip(tmp_path):
    save_scene(tmp_path, "s1", ["Pot", "Water"])
    save_scene(tmp_path, "s2", ["Pot", "Egg"])
    store = load_memory_dir(tmp_path)
    s1, s2 = frozenset({"Pot", "Water"}), frozenset({"Pot", "Egg"})
    assert len(store) == 2
    assert store.holding == {"Pot": [s1, s2], "Water": [s1], "Egg": [s2]}


@pytest.mark.parametrize("text, reason", [
    ('[{"id": "s1", "features": ["Pot"]}]', "top level is not an object"),
    ('{"id": 7, "features": ["Pot"]}', "id is not a string"),
    ('{"id": "s1", "features": "Pot"}', "features is not a list of strings"),
    ('{"id": "s1", "features": ["Pot", 3]}', "features is not a list of strings"),
])
def test_malformed_memory_file_rejected(tmp_path, text, reason):
    (tmp_path / "bad.json").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=reason):
        load_memory_dir(tmp_path)


@given(st.integers(0, 10**9))
def test_votes_match_oracle(seed):
    rng = random.Random(seed)
    entries = make_store_entries(rng, max_entries=60, max_features=12)
    store = store_with(entries)
    inputs = rng.sample(sorted({f for fs in entries.values() for f in fs}),
                        k=min(4, len(entries)))
    # The same votes, in the scan's order.
    assert (list(cross_reference(store, inputs).items())
            == list(vote_oracle(entries, inputs).items()))


@given(st.integers(0, 10**9))
def test_vote_monotone_in_entries(seed):
    rng = random.Random(seed)
    entries = make_store_entries(rng, max_entries=40, max_features=10)
    store = store_with(entries)
    inputs = rng.sample(sorted({f for fs in entries.values() for f in fs}), k=2)
    before = cross_reference(store, inputs)
    store.store_scene("extra", set(inputs) | {"bonus"})
    after = cross_reference(store, inputs)
    for feature, votes in before.items():
        assert after[feature] >= votes


@given(st.integers(0, 10**9))
def test_predict_subset_of_legal(seed):
    rng = random.Random(seed)
    entries = make_store_entries(rng, max_entries=40, max_features=10)
    store = store_with(entries)
    pool = sorted({f for fs in entries.values() for f in fs})
    inputs = rng.sample(pool, k=min(3, len(pool)))
    legal = set(rng.sample(pool, k=min(5, len(pool))))
    prediction = predict(store, inputs, legal=legal, k=4)
    assert {f.feature for f in prediction} <= legal
    expected = predict_oracle(entries, inputs, legal, 4)
    assert [(f.feature, f.votes) for f in prediction] == expected
