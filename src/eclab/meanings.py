"""Meaning spaces: attribute-value tuples and bounded-length Dyck-k words.

A meaning is always a tuple of ints. For attribute-value spaces the tuple
holds one value index per attribute. For Dyck spaces it holds bracket token
indices: opens are ``0..k-1``, the matching closes are ``k..2k-1``, and the
empty word is ``()``. Enumeration order is deterministic: lexicographic for
attribute-value, (length, then lexicographic) for Dyck.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

SIZE_CAP = 1_000_000


class MeaningError(ValueError):
    """Bad space parameters or a meaning that is not in the space."""


@dataclass
class MeaningSpace:
    kind: str  # "attr_val" | "dyck"
    meanings: list
    n_att: int | None = None
    n_val: int | None = None
    k: int | None = None
    l_max: int | None = None

    def __post_init__(self):
        self._index = {m: i for i, m in enumerate(self.meanings)}
        self._lengths = np.array([len(m) for m in self.meanings], dtype=np.int64)
        width = self.n_att if self.kind == "attr_val" else self.l_max
        self._ints = np.zeros((len(self.meanings), width), dtype=np.int64)
        for i, m in enumerate(self.meanings):
            self._ints[i, : len(m)] = m

    def __len__(self):
        return len(self.meanings)

    def index_of(self, meaning):
        idx = self._index.get(tuple(meaning))
        if idx is None:
            raise MeaningError(f"meaning {meaning!r} is not in this space")
        return idx

    def rows(self, meanings):
        """``(ints, lengths)`` of a batch of meanings: the values [B, n_att],
        or the Dyck tokens zero-padded to [B, l_max], and each meaning's
        length [B]. Raises ``MeaningError`` on a meaning not in the space."""
        idx = np.array([self.index_of(m) for m in meanings], dtype=np.int64)
        return self._ints[idx], self._lengths[idx]


def enumerate_attr_val(n_att, n_val, cap=SIZE_CAP):
    """All value tuples for ``n_att`` attributes of ``n_val`` values each."""
    if n_att < 1 or n_val < 1:
        raise MeaningError(f"need n_att >= 1 and n_val >= 1, got {n_att}, {n_val}")
    size = n_val**n_att
    if size > cap:
        raise MeaningError(f"space size {size} exceeds cap {cap}")
    meanings = list(itertools.product(range(n_val), repeat=n_att))
    return MeaningSpace("attr_val", meanings, n_att=n_att, n_val=n_val)


def count_dyck(k, l_max):
    """Number of Dyck-k words of length <= l_max (Catalan(n) * k^n pairs)."""
    return sum(math.comb(2 * n, n) // (n + 1) * k**n for n in range(l_max // 2 + 1))


def enumerate_dyck(k, l_max, cap=SIZE_CAP):
    """All balanced bracket words over k bracket types with length <= l_max."""
    if k < 1 or l_max < 0:
        raise MeaningError(f"need k >= 1 and l_max >= 0, got {k}, {l_max}")
    size = count_dyck(k, l_max)
    if size > cap:
        raise MeaningError(f"space size {size} exceeds cap {cap}")
    # by_pairs[n] = sorted words with exactly n bracket pairs; built from the
    # unique first-block decomposition  word = (t A )t B
    by_pairs = [[()]]
    for n in range(1, l_max // 2 + 1):
        words = []
        for t in range(k):
            opener, closer = t, k + t
            for inner_pairs in range(n):
                for inner in by_pairs[inner_pairs]:
                    head = (opener,) + inner + (closer,)
                    for rest in by_pairs[n - 1 - inner_pairs]:
                        words.append(head + rest)
        words.sort()
        by_pairs.append(words)
    meanings = [w for group in by_pairs for w in group]
    return MeaningSpace("dyck", meanings, k=k, l_max=l_max)


def is_dyck(tokens, k):
    """True iff ``tokens`` is a balanced word over k bracket types."""
    open_types = []
    for t in tokens:
        if not 0 <= t < 2 * k:
            raise MeaningError(f"token {t} outside alphabet for k={k}")
        if t < k:
            open_types.append(t)
        else:
            if not open_types or open_types[-1] != t - k:
                return False
            open_types.pop()
    return not open_types


def split(space, seed):
    """Deterministic 9:1 train/test split of meaning indices.

    A seeded permutation of the space is drawn; the first ceil(size/10)
    positions become the test set. Returned index lists are sorted.
    """
    size = len(space)
    if size < 2:
        raise MeaningError(f"cannot split a space of size {size}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(size)
    n_test = -(-size // 10)
    test = sorted(int(i) for i in perm[:n_test])
    train = sorted(int(i) for i in perm[n_test:])
    return train, test


def encode_meaning(meaning, space, dtype=np.float32):
    """Model-facing encoding of one meaning.

    Attribute-value: concatenated one-hot vector, attribute-major (for
    n_att=2, n_val=4 the meaning (1, 2) sets positions 1 and 6). Dyck: the
    token index list itself (callers embed it).
    """
    meaning = tuple(meaning)
    space.index_of(meaning)  # membership check
    if space.kind == "attr_val":
        out = np.zeros(space.n_att * space.n_val, dtype=dtype)
        for a, v in enumerate(meaning):
            out[a * space.n_val + v] = 1.0
        return out
    return list(meaning)
