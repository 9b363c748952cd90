"""Seed derivation: stable, name-separated, collision-resistant substreams."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from noncepipe import rng as rng_module
from noncepipe.rng import derive_seed, substream


def test_derive_seed_matches_sha256_construction():
    h = hashlib.sha256()
    h.update(b"7")
    h.update(b"\x1f" + b"scenario")
    h.update(b"\x1f" + b"alpha")
    expected = int.from_bytes(h.digest()[:16], "big")
    assert derive_seed(7, "scenario", "alpha") == expected


def test_derive_seed_deterministic_and_name_sensitive():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(2, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "a", "c")


def test_name_boundaries_matter():
    # the separator keeps ("ab","c") and ("a","bc") apart
    assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")


def test_substream_reproducible_and_independent():
    a1 = substream(5, "x").random()
    a2 = substream(5, "x").random()
    b = substream(5, "y").random()
    assert a1 == a2
    assert a1 != b


def test_derive_seed_accepts_non_string_names():
    assert derive_seed(1, 42, "x") == derive_seed(1, "42", "x")


# ---------------------------------------------------------------------------
# lazy seeding: a substream draws exactly what an eagerly seeded Random does
# ---------------------------------------------------------------------------

_population = st.lists(st.integers(-5, 5), min_size=1, max_size=8)

# one draw: (method name, args, kwargs), over every Random method src/ calls
_draws = st.one_of(
    st.tuples(st.just("choice"), st.tuples(_population), st.just({})),
    _population.flatmap(
        lambda pop: st.tuples(
            st.just("choices"),
            st.tuples(st.just(pop)),
            st.fixed_dictionaries({"k": st.integers(0, 6)}),
        )
    ),
    st.tuples(st.just("getrandbits"), st.tuples(st.integers(1, 300)), st.just({})),
    st.tuples(st.just("randbytes"), st.tuples(st.integers(0, 70)), st.just({})),
    st.tuples(st.just("randint"), st.tuples(st.just(1), st.integers(1, 2**70)), st.just({})),
    st.tuples(st.just("random"), st.just(()), st.just({})),
    st.tuples(st.just("randrange"), st.tuples(st.just(1), st.integers(2, 2**256)), st.just({})),
    _population.flatmap(
        lambda pop: st.tuples(
            st.just("sample"), st.tuples(st.just(pop), st.integers(0, len(pop))), st.just({})
        )
    ),
)
_names = st.lists(st.one_of(st.text(max_size=8), st.integers()), max_size=4)


@given(st.integers(0, 2**64), _names, st.lists(_draws, min_size=1, max_size=25))
def test_lazy_substream_draws_equal_eager_random(master_seed, names, draws):
    lazy = substream(master_seed, *names)
    eager = random.Random(derive_seed(master_seed, *names))
    for method, args, kwargs in draws:
        assert getattr(lazy, method)(*args, **kwargs) == getattr(eager, method)(*args, **kwargs)


def test_substream_derives_no_seed_until_first_draw(monkeypatch):
    seed_log = []

    def recording(master_seed, *names):
        seed_log.append((master_seed, *names))
        return derive_seed(master_seed, *names)

    monkeypatch.setattr(rng_module, "derive_seed", recording)
    substream(9, "never")
    drawn = substream(9, "drawn")
    assert seed_log == []
    drawn.random()
    drawn.getrandbits(8)
    drawn.random()
    assert seed_log == [(9, "drawn")]


def test_substream_private_names_are_not_forwarded():
    stream = substream(1, "x")
    with pytest.raises(AttributeError):
        stream._randbelow
