import itertools

import numpy as np
import pytest

from eclab.meanings import (
    MeaningError,
    count_dyck,
    encode_meaning,
    enumerate_attr_val,
    enumerate_dyck,
    is_dyck,
    split,
)


def reference_balanced(tokens, k):
    # independent stack-of-chars checker used as the oracle for is_dyck and
    # the brute-force enumerations below
    stack = []
    for t in tokens:
        if t < k:
            stack.append(t)
        elif stack and stack[-1] == t - k:
            stack.pop()
        else:
            return False
    return not stack


def brute_force_dyck(k, l_max):
    words = []
    for length in range(l_max + 1):
        for w in itertools.product(range(2 * k), repeat=length):
            if reference_balanced(w, k):
                words.append(w)
    return words


def test_attr_val_size_and_order():
    sp = enumerate_attr_val(2, 4)
    assert len(sp) == 16
    assert sp.meanings[0] == (0, 0)
    assert sp.meanings[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
    assert sp.meanings[-1] == (3, 3)
    assert len(set(sp.meanings)) == 16


def test_attr_val_sizes_match_power():
    for n_att, n_val in [(2, 64), (4, 8), (3, 16), (6, 4)]:
        assert len(enumerate_attr_val(n_att, n_val)) == n_val**n_att


def test_one_hot_positions():
    sp = enumerate_attr_val(2, 4)
    v = encode_meaning((1, 2), sp)
    assert v.shape == (8,)
    assert list(np.flatnonzero(v)) == [1, 6]
    assert v.dtype == np.float32


def test_encode_rejects_foreign_meaning():
    sp = enumerate_attr_val(2, 4)
    with pytest.raises(MeaningError):
        encode_meaning((1, 7), sp)
    with pytest.raises(MeaningError):
        encode_meaning((1, 2, 3), sp)


def test_rows_gather_the_meanings_as_ints():
    for sp in (enumerate_attr_val(3, 4), enumerate_dyck(2, 6)):
        ms = [sp.meanings[i] for i in (7, 0, 20, 7, len(sp) - 1)]
        ints, lengths = sp.rows([list(m) for m in ms])
        width = sp.n_att if sp.kind == "attr_val" else sp.l_max
        assert ints.shape == (len(ms), width) and ints.dtype == np.int64
        for row, n, m in zip(ints, lengths, ms):
            assert n == len(m)
            assert tuple(row[:n]) == m and not row[n:].any()
        with pytest.raises(MeaningError):
            sp.rows(ms + [(0,) * 7])


def test_rows_of_an_empty_batch_on_a_fresh_space():
    for sp in (enumerate_attr_val(3, 4), enumerate_dyck(2, 6)):
        ints, lengths = sp.rows([])
        width = sp.n_att if sp.kind == "attr_val" else sp.l_max
        assert ints.shape == (0, width) and lengths.shape == (0,)


def test_dyck_small_enumeration_explicit():
    sp = enumerate_dyck(1, 4)
    assert sp.meanings == [(), (0, 1), (0, 0, 1, 1), (0, 1, 0, 1)]


def test_dyck_matches_brute_force():
    for k, l_max in [(1, 6), (2, 4), (3, 4)]:
        sp = enumerate_dyck(k, l_max)
        assert sorted(sp.meanings) == sorted(brute_force_dyck(k, l_max))
        # ordering: by length, then lexicographic within a length
        keys = [(len(m), m) for m in sp.meanings]
        assert keys == sorted(keys)


def test_dyck_preset_space_sizes():
    # closed-form sums of Catalan(n) * k^n, checked by hand
    assert len(enumerate_dyck(1, 18)) == 6918
    assert len(enumerate_dyck(4, 8)) == 3941
    assert len(enumerate_dyck(9, 6)) == 3817
    assert count_dyck(4, 8) == 3941


def test_dyck_words_are_valid_even_and_bounded():
    sp = enumerate_dyck(2, 6)
    assert len(sp.meanings) == len(set(sp.meanings))
    for m in sp.meanings:
        assert len(m) % 2 == 0 and len(m) <= 6
        assert reference_balanced(m, 2)


def test_is_dyck_agrees_with_reference():
    rng = np.random.default_rng(41)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        length = int(rng.integers(0, 9))
        w = tuple(int(t) for t in rng.integers(0, 2 * k, size=length))
        assert is_dyck(w, k) == reference_balanced(w, k)


def test_is_dyck_examples_and_errors():
    assert is_dyck((), 2)
    assert is_dyck((0, 1, 2, 3), 2) is False  # close type mismatch
    assert is_dyck((0, 1, 3, 2), 2)
    assert not is_dyck((0,), 2)
    with pytest.raises(MeaningError):
        is_dyck((0, 9), 2)


def test_size_cap_rejects_before_enumerating():
    with pytest.raises(MeaningError, match="cap"):
        enumerate_attr_val(10, 10, cap=1000)
    with pytest.raises(MeaningError, match="cap"):
        enumerate_dyck(9, 30)


def test_split_sizes_and_partition():
    sp = enumerate_attr_val(2, 64)
    train, test = split(sp, seed=123)
    assert len(test) == 410  # ceil(4096 / 10)
    assert len(train) == 3686
    assert set(train).isdisjoint(test)
    assert sorted(train + test) == list(range(4096))


def test_split_small_space():
    sp = enumerate_attr_val(2, 4)
    train, test = split(sp, seed=0)
    assert len(test) == 2 and len(train) == 14


def test_split_deterministic_and_seed_sensitive():
    sp = enumerate_attr_val(3, 8)
    assert split(sp, 7) == split(sp, 7)
    assert split(sp, 7) != split(sp, 8)
