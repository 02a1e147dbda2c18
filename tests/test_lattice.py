"""The compressed lattice field and the light-cone return loop against dense references."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from walkers_return import crw, lattice, qw

RETURN_HORIZONS = (0, 1, 2, 3, 7, 40, 301)


def _walks(seed):
    """(simulate_return, initial field, step, step matrix) for a qw walk with a
    real-entry coin and for a crw walk, set up by `lattice.stack`.

    BLAS rounds a product with a complex coin differently in the last columns
    of a block than in the others, so a field laid out over other columns can
    move in the last bit; with real coin entries every column rounds alike.
    """
    rng = np.random.default_rng(seed)
    coin = qw.CoinMatrix.from_alpha_sq(float(rng.uniform(0.05, 0.95)))
    phi = qw.QWInitialState.random(rng)
    transition = crw.TransitionMatrix.random(rng)
    phi_hat = crw.CRWInitialState.random(rng)
    qw_matrix, qw_field = lattice.stack(coin, phi)
    crw_matrix, crw_field = lattice.stack(transition, phi_hat)
    return [
        (
            lambda nmax: qw.simulate_return(coin, phi, nmax),
            qw_field,
            lambda field: qw.step(field, qw_matrix),
            qw_matrix,
        ),
        (
            lambda nmax: crw.simulate_return_crw(transition, phi_hat, nmax),
            crw_field,
            lambda field: crw.crw_step(field, crw_matrix),
            crw_matrix,
        ),
    ]


def _weight(values):
    """Site weight of components: |amp|^2 for amplitudes, the mass itself for masses."""
    return np.abs(values) ** 2 if np.iscomplexobj(values) else values


def _origin_weight(field):
    """The origin's weight in the untrimmed field, from its two scalar components."""
    if field.time % 2:
        return 0.0
    left, right = field.packed[:, field.time // 2]
    return float(_weight(left) + _weight(right))


def _dense_origin_weights(field, advance, nmax):
    """r_0..r_nmax read from the untrimmed field after every step, as `evolve` walks it."""
    weights = [_origin_weight(field)]
    for _ in range(nmax):
        field = advance(field)
        weights.append(_origin_weight(field))
    return np.array(weights)


@pytest.mark.parametrize("nmax", RETURN_HORIZONS)
@pytest.mark.parametrize("walk", [0, 1], ids=["qw", "crw"])
def test_light_cone_return_equals_the_dense_walk(nmax, walk):
    for seed in range(3):
        simulate, field, advance, _ = _walks(seed)[walk]
        assert np.array_equal(simulate(nmax), _dense_origin_weights(field, advance, nmax))


def test_light_cone_return_with_a_complex_coin_matches_to_rounding():
    rng = np.random.default_rng(5)
    matrix, field = lattice.stack(qw.CoinMatrix.random(rng), qw.QWInitialState.random(rng))
    advance = lambda f: qw.step(f, matrix)  # noqa: E731
    expected = _dense_origin_weights(field, advance, 301)
    values = lattice.return_values(field, 301, advance)
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-15)
    assert np.all(values[1::2] == 0.0)


def _dense_shift(components, matrix):
    """The dense step: L from the right neighbour, R from the left one."""
    moved = matrix @ components
    new = np.zeros((2, components.shape[1] + 2), dtype=moved.dtype)
    new[0, :-2] = moved[0]
    new[1, 2:] = moved[1]
    return new


@pytest.mark.parametrize("walk", [0, 1], ids=["qw", "crw"])
def test_compressed_field_reads_like_the_dense_reference(walk):
    _, field, advance, matrix = _walks(11)[walk]
    dense = field.packed.copy()
    for t in range(1, 31):
        field = advance(field)
        dense = _dense_shift(dense, matrix)
        weights = _weight(dense[0]) + _weight(dense[1])
        assert field.time == t
        # The stored slots are the occupied-parity sites x = -t + 2m; every
        # other site of the dense walk is exactly empty.
        assert np.array_equal(field.packed, dense[:, ::2])
        assert not dense[:, 1::2].any()
        assert np.array_equal(field.position_distribution(), weights)
        assert field.total_probability() == pytest.approx(float(np.sum(weights)), abs=1e-14)


def test_a_returned_field_is_never_overwritten():
    rng = np.random.default_rng(3)
    coin = qw.CoinMatrix.random(rng)
    first = qw.evolve(coin, qw.QWInitialState.random(rng), 5)
    kept = first.packed.copy()
    later = lattice.evolve(first, 20, lambda field: qw.step(field, coin.matrix()))
    assert later.time == 25
    assert np.array_equal(first.packed, kept)


def test_return_values_rejects_a_field_after_time_zero():
    field = qw.evolve(qw.CoinMatrix.hadamard(), qw.QWInitialState.canonical(), 2)
    with pytest.raises(ValueError, match="time 0"):
        lattice.return_values(field, 4, lambda f: qw.step(f, qw.CoinMatrix.hadamard().matrix()))


# ---------------------------------------------------------------------------
# walker stacks


_stacks = dict(seed=st.integers(0, 2**32 - 1), walkers=st.integers(1, 25), nmax=st.integers(0, 150))


@given(**_stacks)
@example(seed=0, walkers=1, nmax=0)
@example(seed=1, walkers=25, nmax=1)
@example(seed=2, walkers=7, nmax=77)
@settings(max_examples=30, deadline=None)
def test_stacked_return_equals_the_walks_one_state_at_a_time(seed, walkers, nmax):
    rng = np.random.default_rng(seed)
    coin = qw.CoinMatrix.random(rng)
    states = [qw.QWInitialState.random(rng) for _ in range(walkers)]
    stacked = qw.simulate_return(coin, states, nmax)
    assert stacked.shape == (walkers, nmax + 1)
    assert np.array_equal(stacked, [qw.simulate_return(coin, phi, nmax) for phi in states])


@given(**_stacks)
@example(seed=0, walkers=1, nmax=0)
@example(seed=1, walkers=25, nmax=1)
@example(seed=2, walkers=7, nmax=77)
@settings(max_examples=30, deadline=None)
def test_stacked_crw_return_equals_the_walks_one_state_at_a_time(seed, walkers, nmax):
    rng = np.random.default_rng(seed)
    transition = crw.TransitionMatrix.random(rng)
    states = [crw.CRWInitialState.random(rng) for _ in range(walkers)]
    stacked = crw.simulate_return_crw(transition, states, nmax)
    assert stacked.shape == (walkers, nmax + 1)
    assert np.array_equal(stacked, [crw.simulate_return_crw(transition, phi_hat, nmax) for phi_hat in states])


# Each walk's dense route, with how it draws a random coin (transition) and
# a random initial state.
_EVOLVE = [
    (qw.evolve, qw.CoinMatrix.random, qw.QWInitialState.random),
    (crw.evolve_crw, crw.TransitionMatrix.random, crw.CRWInitialState.random),
]


@pytest.mark.parametrize("walk", [0, 1], ids=["qw", "crw"])
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per-walker"])
@given(seed=st.integers(0, 2**32 - 1), walkers=st.integers(1, 12), n=st.integers(0, 60))
@example(seed=0, walkers=1, n=0)
@example(seed=1, walkers=12, n=60)
@settings(max_examples=25, deadline=None)
def test_evolve_reads_a_stack_row_by_row(walk, per_walker, seed, walkers, n):
    evolve, random_source, random_state = _EVOLVE[walk]
    rng = np.random.default_rng(seed)
    sources = [random_source(rng) for _ in range(walkers)] if per_walker else random_source(rng)
    states = [random_state(rng) for _ in range(walkers)]
    stacked = evolve(sources, states, n)
    alone = [
        evolve(source, phi, n)
        for source, phi in zip(sources if per_walker else [sources] * walkers, states)
    ]
    distribution = stacked.position_distribution()
    assert distribution.shape == (walkers, 2 * n + 1)
    assert np.array_equal(distribution, [field.position_distribution() for field in alone])
    total = stacked.total_probability()
    assert total.shape == (walkers,)
    assert np.array_equal(total, [field.total_probability() for field in alone])
    assert all(isinstance(field.total_probability(), float) for field in alone)


# Each walk's return route, with how it draws a random coin (transition)
# and a random initial state.
_PER_WALKER = [
    (qw.simulate_return, qw.CoinMatrix.random, qw.QWInitialState.random),
    (crw.simulate_return_crw, crw.TransitionMatrix.random, crw.CRWInitialState.random),
]


@pytest.mark.parametrize("walk", [0, 1], ids=["qw", "crw"])
@given(**_stacks)
@example(seed=0, walkers=1, nmax=0)
@example(seed=1, walkers=25, nmax=1)
@example(seed=2, walkers=7, nmax=77)
@example(seed=3, walkers=25, nmax=150)
@settings(max_examples=30, deadline=None)
def test_a_stack_with_a_coin_per_walker_equals_each_walk_alone(walk, seed, walkers, nmax):
    simulate, random_source, random_state = _PER_WALKER[walk]
    rng = np.random.default_rng(seed)
    sources = [random_source(rng) for _ in range(walkers)]
    states = [random_state(rng) for _ in range(walkers)]
    stacked = simulate(sources, states, nmax)
    assert stacked.shape == (walkers, nmax + 1)
    assert np.array_equal(stacked, [simulate(source, phi, nmax) for source, phi in zip(sources, states)])


@pytest.mark.parametrize("walk", [0, 1], ids=["qw", "crw"])
@given(seed=st.integers(0, 2**32 - 1), sources=st.integers(1, 25), states=st.integers(0, 25), nmax=st.integers(0, 150))
@example(seed=0, sources=1, states=0, nmax=0)
@example(seed=1, sources=25, states=24, nmax=150)
@settings(max_examples=20, deadline=None)
def test_a_coin_per_walker_needs_a_state_per_walker(walk, seed, sources, states, nmax):
    simulate, random_source, random_state = _PER_WALKER[walk]
    rng = np.random.default_rng(seed)
    assume(states != sources)
    source_list = [random_source(rng) for _ in range(sources)]
    state_list = [random_state(rng) for _ in range(states)]
    with pytest.raises(ValueError, match=rf"got {sources} matrices and {states} states"):
        simulate(source_list, state_list, nmax)
    with pytest.raises(ValueError, match=rf"got {sources} matrices and one state"):
        simulate(source_list, random_state(rng), nmax)


@given(seed=st.integers(0, 2**32 - 1), nmax=st.integers(0, 150))
@example(seed=0, nmax=6)
@settings(max_examples=20, deadline=None)
def test_an_empty_stack_returns_no_rows(seed, nmax):
    rng = np.random.default_rng(seed)
    for simulate, random_source, _ in _PER_WALKER:
        assert simulate(random_source(rng), [], nmax).shape == (0, nmax + 1)
        assert simulate([], [], nmax).shape == (0, nmax + 1)


def test_return_weights_round_like_scalar_squares():
    # At nmax = 0 the weights are those of the origin pairs themselves.  An
    # array's |amp| ** 2 would differ from the scalar one on about one value
    # in a thousand; spread the magnitudes so that many exponents are hit.
    rng = np.random.default_rng(17)
    pairs = rng.normal(size=(50_000, 2)) + 1j * rng.normal(size=(50_000, 2))
    pairs *= 10.0 ** rng.uniform(-8, 8, size=(50_000, 1))
    coin = qw.CoinMatrix.hadamard()
    values = lattice.return_values(lattice.Field.at_origin(pairs), 0, lambda f: qw.step(f, coin.matrix()))
    # `left` and `right` are numpy scalars, so ** 2 is a scalar power.
    scalar = [np.abs(left) ** 2 + np.abs(right) ** 2 for left, right in pairs]
    assert np.array_equal(values[:, 0], scalar)
