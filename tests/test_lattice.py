"""The compressed lattice field and the light-cone return loop against dense references."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from walkers_return import crw, lattice, qw

RETURN_HORIZONS = (0, 1, 2, 3, 7, 40, 301)

# The refusal of a step on a field without a plan.
NO_PLAN = r"^a field without a plan does not step; walk it with lattice\.evolve or lattice\.return_values$"


def _not_pairs(shape):
    """The refusal of a start that is no array of (L, R) pairs."""
    return rf"^a walk starts from \(L, R\) pairs of shape \(\.\.\., 2\), got shape {re.escape(str(shape))}$"


def _walks(seed):
    """(simulate_return, step matrix, origin pairs, step) for a qw walk with a
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
    return [
        (lambda nmax: qw.simulate_return(coin, phi, nmax), *lattice.stack(coin, phi), qw.step),
        (
            lambda nmax: crw.simulate_return_crw(transition, phi_hat, nmax),
            *lattice.stack(transition, phi_hat),
            crw.crw_step,
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


def _dense_origin_weights(matrix, origin, step, nmax):
    """r_0..r_nmax read from the untrimmed field after every step of `evolve`."""
    weights = [_origin_weight(lattice.Field(0, origin[..., None]))]

    def recorded(field, matrix):
        field = step(field, matrix)
        weights.append(_origin_weight(field))
        return field

    lattice.evolve(matrix, origin, nmax, recorded)
    return np.array(weights)


@pytest.mark.parametrize("nmax", RETURN_HORIZONS)
@pytest.mark.parametrize("walk", [0, 1], ids=["qw", "crw"])
def test_light_cone_return_equals_the_dense_walk(nmax, walk):
    for seed in range(3):
        simulate, matrix, origin, step = _walks(seed)[walk]
        assert np.array_equal(simulate(nmax), _dense_origin_weights(matrix, origin, step, nmax))


@pytest.mark.parametrize("nmax", [*range(12), 40, 301])
def test_light_cone_windows_hold_exactly_the_sites_that_can_return(nmax):
    # The window at time t is every slot m whose site x = -t + 2m has
    # |x| <= min(t, nmax - t), and no other.
    matrix, origin = lattice.stack(qw.CoinMatrix.from_alpha_sq(0.3), qw.QWInitialState.canonical())
    windows = []

    def advance(field, matrix):
        field = qw.step(field, matrix)
        windows.append((field.time, field.lo, field.packed.shape[-1]))
        return field

    lattice.return_values(matrix, origin, nmax, advance)
    assert [t for t, _, _ in windows] == list(range(1, nmax + 1))
    for t, lo, width in windows:
        slots = [m for m in range(t + 1) if abs(2 * m - t) <= min(t, nmax - t)]
        assert width == len(slots)
        assert not slots or lo == slots[0]


def test_light_cone_return_with_a_complex_coin_matches_to_rounding():
    rng = np.random.default_rng(5)
    matrix, origin = lattice.stack(qw.CoinMatrix.random(rng), qw.QWInitialState.random(rng))
    expected = _dense_origin_weights(matrix, origin, qw.step, 301)
    values = lattice.return_values(matrix, origin, 301, qw.step)
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-15)
    assert np.all(values[1::2] == 0.0)


def _dense_shift(components, matrix):
    """The dense step: L from the right neighbour, R from the left one."""
    moved = matrix @ components
    new = np.zeros((2, components.shape[1] + 2), dtype=moved.dtype)
    new[0, :-2] = moved[0]
    new[1, 2:] = moved[1]
    return new


def _shift_alone(field, matrix):
    """A step without a plan, as a reference: a fresh zeroed buffer laid out
    as a plan's, so a product writes the same columns, and every slot that
    the old slots reach, lo..end."""
    old, lo = field.packed, field.lo
    end = lo + old.shape[-1]
    buffer = np.zeros(old.shape[:-2] + (2 * end + 4,), dtype=old.dtype)
    write = buffer.reshape(old.shape[:-2] + (2, end + 2))
    if old.shape[-1] > 1 and matrix.dtype != old.dtype:
        np.matmul(matrix, old.view(matrix.dtype), out=write.view(matrix.dtype)[..., 2 * lo : 2 * end])
    else:
        np.matmul(matrix, old, out=write[..., lo:end])
    read = buffer[..., : 2 * end + 2].reshape(old.shape[:-2] + (2, end + 1))
    return lattice.Field(field.time + 1, read[..., lo : end + 1], lo)


@pytest.mark.parametrize("walk", [0, 1], ids=["qw", "crw"])
def test_compressed_field_reads_like_the_dense_reference(walk):
    _, matrix, origin, step = _walks(11)[walk]
    dense = [origin[:, None]]

    def compared(field, matrix):
        field = step(field, matrix)
        dense.append(_dense_shift(dense[-1], matrix))
        weights = _weight(dense[-1][0]) + _weight(dense[-1][1])
        assert field.time == len(dense) - 1
        # The stored slots are the occupied-parity sites x = -t + 2m; every
        # other site of the dense walk is exactly empty.
        assert np.array_equal(field.packed, dense[-1][:, ::2])
        assert not dense[-1][:, 1::2].any()
        assert np.array_equal(field.position_distribution(), weights)
        assert field.total_probability() == pytest.approx(float(np.sum(weights)), abs=1e-14)
        return field

    assert lattice.evolve(matrix, origin, 30, compared).time == 30


def test_a_returned_field_is_never_overwritten_nor_stepped():
    rng = np.random.default_rng(3)
    coin, phi = qw.CoinMatrix.random(rng), qw.QWInitialState.random(rng)
    first = qw.evolve(coin, phi, 5)
    kept = first.packed.copy()
    assert qw.evolve(coin, phi, 25).time == 25
    with pytest.raises(ValueError, match=_not_pairs(())):
        lattice.evolve(coin.matrix(), first, 20, qw.step)
    with pytest.raises(ValueError, match=NO_PLAN):
        qw.step(first, coin.matrix())
    assert np.array_equal(first.packed, kept)


@pytest.mark.parametrize("loop", [lattice.return_values, lattice.evolve], ids=["return_values", "evolve"])
def test_a_loop_rejects_a_field_after_time_zero(loop):
    # A loop starts from origin pairs, never from a field.
    field = qw.evolve(qw.CoinMatrix.hadamard(), qw.QWInitialState.canonical(), 2)
    with pytest.raises(ValueError, match=_not_pairs(())):
        loop(qw.CoinMatrix.hadamard().matrix(), field, 4, qw.step)


def test_a_start_of_more_than_one_slot_is_refused_before_any_step():
    # Pairs of three slots, as an array and wrapped in a time-0 field: the
    # plan's windows are sized for one origin slot, so a walk from them
    # would drop mass (total 0.51 from 1.0 after three steps) with no error.
    matrix, _ = lattice.stack(crw.TransitionMatrix.from_persistence(0.3, 0.4), crw.CRWInitialState.from_phi1(0.5))
    slots = np.array([[0.2, 0.3, 0.0], [0.1, 0.2, 0.2]])
    calls = []

    def counted(field, matrix):
        calls.append(field.time)
        return crw.crw_step(field, matrix)

    for start, shape in [(slots, (2, 3)), (lattice.Field(0, slots), ()), (slots.T[:, :, None], (3, 2, 1)), (0.5, ())]:
        for loop in (lattice.evolve, lattice.return_values):
            with pytest.raises(ValueError, match=_not_pairs(shape)):
                loop(matrix, start, 3, counted)
    assert calls == []


def _not_walked(matrix, origin):
    """The refusal of origin pairs whose dtype the loops do not walk."""
    return (
        r"^a walk needs float or complex pairs its "
        rf"{matrix.dtype} matrix does not widen, got {np.asarray(origin).dtype}$"
    )


def test_pairs_of_a_dtype_the_loops_do_not_walk_are_refused_before_any_step():
    # Int and bool pairs once raised numpy's UFuncTypeError from inside the
    # first step, as did float pairs under a complex coin; float32 pairs
    # walked silently in float32.
    real, _ = lattice.stack(crw.TransitionMatrix.from_persistence(0.3, 0.4), crw.CRWInitialState.from_phi1(0.5))
    complex_coin = qw.CoinMatrix.from_alpha_sq(0.3, theta=0.7).matrix()
    assert complex_coin.imag.any()
    starts = [
        (real, np.array([1, 0])),
        (real, np.array([True, False])),
        (complex_coin, np.array([0.6, 0.8])),
        (real, np.array([0.5, 0.5], dtype=np.float32)),
    ]
    calls = []

    def counted(field, matrix):
        calls.append(field.time)
        return lattice.shift(field, matrix)

    for matrix, origin in starts:
        for loop in (lattice.evolve, lattice.return_values):
            with pytest.raises(ValueError, match=_not_walked(matrix, origin)):
                loop(matrix, origin, 3, counted)
    assert calls == []


def test_a_real_coin_over_real_pairs_is_walked_as_masses():
    # The dtype is all the loops see: a qw coin with real entries over real
    # pairs walks like a crw, and r_0 reads 0.6 + 0.8.
    coin, _ = lattice.stack(qw.CoinMatrix.from_alpha_sq(0.3), qw.QWInitialState.canonical())
    assert coin.dtype == np.float64
    assert lattice.return_values(coin, np.array([0.6, 0.8]), 4, qw.step)[0] == 1.4


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
    values = lattice.return_values(coin.matrix(), pairs, 0, qw.step)
    # `left` and `right` are numpy scalars, so ** 2 is a scalar power.
    scalar = [np.abs(left) ** 2 + np.abs(right) ** 2 for left, right in pairs]
    assert np.array_equal(values[:, 0], scalar)


# ---------------------------------------------------------------------------
# real coins: the float-pair product against the complex one


def _complex_states(rng, shape):
    """Random complex (L, R) pairs of shape `shape` + (2,), magnitudes spread down to 1e-300."""
    pairs = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    return pairs * 10.0 ** rng.uniform(-300, 0, size=shape + (1,))


def _origin_weights(field):
    """r_t of every walker, rounded as `return_values` rounds it."""
    if field.time % 2:
        return np.zeros(field.packed.shape[:-2])
    pair = field.packed[..., field.time // 2 - field.lo]
    weights = np.float_power(np.abs(pair), 2)
    return weights[..., 0] + weights[..., 1]


def _real_coins(rng, layout, walkers):
    """The step matrix `lattice.stack` hands out for coins with real entries,
    their complex matrix and the walker axes, for one walker or a stack."""
    draw = lambda: qw.CoinMatrix.from_alpha_sq(float(rng.uniform(0.05, 0.95)))  # noqa: E731
    if layout == "single":
        coin = draw()
        matrix, _ = lattice.stack(coin, qw.QWInitialState.canonical())
        return matrix, coin.matrix(), ()
    coins = draw() if layout == "shared" else [draw() for _ in range(walkers)]
    matrix, _ = lattice.stack(coins, [qw.QWInitialState.canonical()] * walkers)
    complex_matrix = coins.matrix() if layout == "shared" else np.array([coin.matrix() for coin in coins])
    return matrix, complex_matrix, (walkers,)


@pytest.mark.parametrize("layout", ["single", "shared", "per-walker"])
@given(seed=st.integers(0, 2**32 - 1), walkers=st.integers(1, 6), nmax=st.integers(0, 300))
@example(seed=0, walkers=1, nmax=0)
@example(seed=1, walkers=3, nmax=1)
@example(seed=2, walkers=2, nmax=2)
@example(seed=3, walkers=6, nmax=3)
@example(seed=4, walkers=5, nmax=300)
@settings(max_examples=25, deadline=None)
def test_a_real_coin_steps_bit_for_bit_as_its_complex_matrix(layout, seed, walkers, nmax):
    rng = np.random.default_rng(seed)
    matrix, complex_matrix, shape = _real_coins(rng, layout, walkers)
    assert matrix.dtype == np.float64
    assert np.array_equal(matrix, complex_matrix.real) and not complex_matrix.imag.any()
    origin = _complex_states(rng, shape)
    # The reference steps with the complex matrix, without a plan; the real
    # matrix's planned steps must give the same fields at every time.
    references = [lattice.Field(0, origin[..., None])]
    for _ in range(nmax):
        references.append(_shift_alone(references[-1], complex_matrix))
    expected = [_origin_weights(reference) for reference in references]

    def compared(field, matrix):
        field = qw.step(field, matrix)
        assert np.array_equal(field.packed, references[field.time].packed)
        return field

    walked = lattice.evolve(matrix, origin, nmax, compared)
    assert walked.packed.dtype == np.complex128
    assert np.array_equal(walked.packed, references[-1].packed)
    values = lattice.return_values(matrix, origin, nmax, qw.step)
    assert values.shape == shape + (nmax + 1,)
    assert np.array_equal(values, np.moveaxis(np.array(expected), 0, -1))


def test_complex_coins_keep_the_complex_product():
    rng = np.random.default_rng(23)
    real, phased = qw.CoinMatrix.from_alpha_sq(0.3), qw.CoinMatrix.from_alpha_sq(0.3, beta_phase=1.0)
    states = [qw.QWInitialState.random(rng) for _ in range(3)]
    mixed, origin = lattice.stack([real, phased, real], states)
    assert mixed.dtype == np.complex128 and mixed.imag.any()
    # The Hadamard matrix keeps an imaginary residue of 6e-17 from e^{i pi/2}.
    hadamard, _ = lattice.stack(qw.CoinMatrix.hadamard(), states[0])
    assert hadamard.dtype == np.complex128 and hadamard.imag.any()
    # States keep their imaginary parts, also under a real matrix.
    vectors = np.array([phi.vector() for phi in states])
    assert np.array_equal(origin, vectors)
    shared, origin = lattice.stack(real, states)
    assert shared.dtype == np.float64
    assert origin.dtype == np.complex128 and np.array_equal(origin, vectors)
    _, alone = lattice.stack(real, states[1])
    assert np.array_equal(alone, vectors[1])


# ---------------------------------------------------------------------------
# step buffers: a field handed out is never written again


def test_an_evolved_field_survives_later_walks_on_the_same_coin():
    rng = np.random.default_rng(29)
    for coin in (qw.CoinMatrix.from_alpha_sq(0.4), qw.CoinMatrix.random(rng)):
        phi = qw.QWInitialState.random(rng)
        matrix, _ = lattice.stack(coin, phi)
        first = qw.evolve(coin, phi, 40)
        kept = first.packed.copy()
        assert first.plan is None and first.lo == 0 and first.packed.shape == (2, 41)
        again = qw.evolve(coin, phi, 40)
        longer = qw.evolve(coin, phi, 55)
        qw.simulate_return(coin, phi, 90)
        with pytest.raises(ValueError, match=NO_PLAN):
            qw.step(first, matrix)
        assert np.array_equal(first.packed, kept)
        assert np.array_equal(again.packed, kept)
        assert longer.time == 55


# Each walk's dense route and its step, with a source and a state.
_HANDED_OUT = {
    "qw": (qw.evolve, qw.step, qw.CoinMatrix.from_alpha_sq(0.3), qw.QWInitialState.canonical()),
    "crw": (crw.evolve_crw, crw.crw_step, crw.TransitionMatrix(a=0.3, b=0.6), crw.CRWInitialState.from_phi1(0.2)),
}


@pytest.mark.parametrize("walk", list(_HANDED_OUT))
def test_a_step_on_a_handed_out_field_is_refused(walk):
    # A field that `evolve` hands out carries no plan, and neither does a
    # time-0 field built by hand: the only stepping path is a planned walk.
    evolve, step, source, state = _HANDED_OUT[walk]
    matrix, origin = lattice.stack(source, state)
    for field in (evolve(source, state, 6), evolve(source, state, 0), lattice.Field(0, origin[..., None])):
        kept = field.packed.copy()
        with pytest.raises(ValueError, match=NO_PLAN):
            step(field, matrix)
        assert np.array_equal(field.packed, kept)


def test_evolve_for_no_steps_gives_the_time_zero_field():
    phi = qw.QWInitialState.canonical()
    for coin in (qw.CoinMatrix.hadamard(), qw.CoinMatrix.from_alpha_sq(0.7)):
        field = qw.evolve(coin, phi, 0)
        assert (field.time, field.lo, field.plan) == (0, 0, None)
        assert np.array_equal(field.packed, phi.vector()[:, None])
        assert np.array_equal(field.position_distribution(), [1.0])
    masses = crw.evolve_crw(crw.TransitionMatrix(a=0.3, b=0.6), crw.CRWInitialState.from_phi1(0.2), 0)
    assert np.array_equal(masses.packed, [[0.2], [0.8]])
    # The field handed out holds a copy of the origin pairs, not a view.
    matrix, origin = lattice.stack(crw.TransitionMatrix(a=0.3, b=0.6), crw.CRWInitialState.from_phi1(0.2))
    assert not np.shares_memory(lattice.evolve(matrix, origin, 0, crw.crw_step).packed, origin)


@pytest.mark.parametrize("nmax", [0, 1])
def test_short_and_empty_walks_keep_their_shapes(nmax):
    rng = np.random.default_rng(31)
    phi = qw.QWInitialState.random(rng)
    for coin in (qw.CoinMatrix.hadamard(), qw.CoinMatrix.from_alpha_sq(0.2)):
        alone = qw.simulate_return(coin, phi, nmax)
        assert alone.shape == (nmax + 1,) and alone[0] == pytest.approx(1.0)
        assert qw.simulate_return(coin, [phi, phi], nmax).shape == (2, nmax + 1)
        assert qw.simulate_return(coin, [], nmax).shape == (0, nmax + 1)
        assert qw.evolve(coin, [], nmax).packed.shape == (0, 2, nmax + 1)
    transition = crw.TransitionMatrix.random(rng)
    assert crw.simulate_return_crw(transition, crw.CRWInitialState.random(rng), nmax).shape == (nmax + 1,)
    assert crw.simulate_return_crw([], [], nmax).shape == (0, nmax + 1)


# ---------------------------------------------------------------------------
# edge slots that underflow to exact zeros: planned windows against plan-less steps


# Walks whose edge slots reach exact zeros long before n = 2001: a crw whose
# left end decays like 0.2^t, one that drifts right fast, and a qw coin
# whose ballistic ends decay like 0.1^t.
_UNDERFLOW = {
    "crw-0.2-0.4": (crw.TransitionMatrix.from_persistence(0.2, 0.4), crw.CRWInitialState.from_phi1(0.3)),
    "crw-0.05-0.4": (crw.TransitionMatrix.from_persistence(0.05, 0.4), crw.CRWInitialState.from_phi1(0.5)),
    "qw-0.01": (qw.CoinMatrix.from_alpha_sq(0.01), qw.QWInitialState.canonical()),
}
# Odd: the last field lives in the buffer of odd times.
_UNDERFLOW_STEPS = 2001


def _stepped_widths(step):
    """`step`, and the list of the widths of the fields it steps."""
    widths = []

    def advance(field, matrix):
        widths.append(field.packed.shape[-1])
        return step(field, matrix)

    return advance, widths


def _reference_walk(matrix, origin, n):
    """Origin weights at every time up to n, rounded as `return_values`
    rounds them, and the dense field at n, from plan-less steps."""
    field, pairs = lattice.Field(0, origin[..., None]), [origin]
    for t in range(1, n + 1):
        field = _shift_alone(field, matrix)
        pairs.append(field.packed[..., t // 2] if t % 2 == 0 else np.zeros_like(pairs[0]))
    pairs = np.array(pairs)
    if pairs.dtype.kind == "c":
        pairs = np.float_power(np.abs(pairs), 2)
    return np.moveaxis(pairs[..., 0] + pairs[..., 1], 0, -1), field


def _check_against_the_reference(matrix, origin, step):
    expected, dense = _reference_walk(matrix, origin, _UNDERFLOW_STEPS)
    advance, widths = _stepped_widths(step)
    walked = lattice.evolve(matrix, origin, _UNDERFLOW_STEPS, advance)
    assert (walked.time, walked.lo, walked.plan) == (_UNDERFLOW_STEPS, 0, None)
    assert walked.packed.shape == dense.packed.shape
    assert np.array_equal(walked.packed, dense.packed)
    assert np.array_equal(walked.position_distribution(), dense.position_distribution())
    # Every slot is stepped, exact zeros included: widths 1..n.
    assert widths == list(range(1, _UNDERFLOW_STEPS + 1))
    for nmax in (64, 65, 1001, 1500, 2000, 2001):
        advance, widths = _stepped_widths(step)
        values = lattice.return_values(matrix, origin, nmax, advance)
        assert np.array_equal(values, expected[..., : nmax + 1])
        # The whole light cone: the sites of the parity of t with
        # |x| <= r = min(t, nmax - t), r + 1 of them when r has that parity.
        cone = [min(t, nmax - t) + 1 - (min(t, nmax - t) - t) % 2 for t in range(nmax)]
        assert widths == cone


@pytest.mark.parametrize("walk", list(_UNDERFLOW))
def test_zero_edges_are_stepped_without_changing_a_bit(walk):
    source, state = _UNDERFLOW[walk]
    step = qw.step if walk.startswith("qw") else crw.crw_step
    _check_against_the_reference(*lattice.stack(source, state), step)


def test_zero_edges_of_a_stack_are_stepped_without_changing_a_bit():
    # Each crw walker with its own transition, their ends underflowing at
    # different times.
    sources = [_UNDERFLOW["crw-0.2-0.4"][0], _UNDERFLOW["crw-0.05-0.4"][0], _UNDERFLOW["crw-0.05-0.4"][0]]
    states = [crw.CRWInitialState.from_phi1(phi1) for phi1 in (0.3, 0.9, 0.0)]
    _check_against_the_reference(*lattice.stack(sources, states), crw.crw_step)
    rng = np.random.default_rng(37)
    coin = _UNDERFLOW["qw-0.01"][0]
    _check_against_the_reference(*lattice.stack(coin, [qw.QWInitialState.random(rng) for _ in range(3)]), qw.step)


def test_an_origin_outside_the_nonzero_columns_has_weight_zero():
    # A walk that drifts right so fast that its mass left of the origin
    # underflows: the origin's columns are exact zeros, and r_n is 0.
    matrix, origin = lattice.stack(crw.TransitionMatrix.from_persistence(0.01, 0.99), crw.CRWInitialState.from_phi1(0.0))
    expected, _ = _reference_walk(matrix, origin, 600)
    values = lattice.return_values(matrix, origin, 600, crw.crw_step)
    assert np.array_equal(values, expected)
    assert values[600] == 0.0 and values[2] > 0.0


# Walks whose ends underflow to exact zeros long before n = 1000: a phased
# coin, whose matrix stays complex, a real coin on complex amplitudes and a
# crw on real masses.
_KEEPS_ITS_WINDOW = {
    "qw-complex": (qw.CoinMatrix.from_alpha_sq(0.01, beta_phase=1.0), qw.QWInitialState.canonical()),
    "qw-real": _UNDERFLOW["qw-0.01"],
    "crw": (crw.TransitionMatrix.from_persistence(0.2, 0.2), crw.CRWInitialState.from_phi1(0.3)),
}


@pytest.mark.parametrize("walk", list(_KEEPS_ITS_WINDOW))
def test_every_walk_keeps_its_whole_window(walk):
    # No window is narrowed to its nonzero columns, though both ends
    # underflow to zeros.
    source, state = _KEEPS_ITS_WINDOW[walk]
    matrix, origin = lattice.stack(source, state)
    assert matrix.dtype == (np.complex128 if walk == "qw-complex" else np.float64)
    advance, widths = _stepped_widths(crw.crw_step if walk == "crw" else qw.step)
    walked = lattice.evolve(matrix, origin, 1000, advance)
    assert widths == list(range(1, 1001))
    assert not walked.packed[..., :100].any() and not walked.packed[..., -100:].any()


def test_an_underflowing_slot_is_stepped_in_both_buffers():
    # All entries 0.5: the end masses halve each step down to 5e-324, and
    # the next halving is a tie that rounds to 0.  The second walker starts
    # with half the mass, so its ends underflow one step earlier, in the
    # other buffer.  The planned steps keep every slot and match plan-less
    # steps.
    matrix, _ = lattice.stack(crw.TransitionMatrix.from_persistence(0.5, 0.5), crw.CRWInitialState.from_phi1(0.5))
    origin = np.array([[0.5, 0.5], [0.25, 0.25]])
    ends = {}

    def recorded(field, matrix):
        field = crw.crw_step(field, matrix)
        ends[field.time] = (field.packed[:, 0, 0].copy(), field.packed[:, 1, -1].copy())
        return field

    advance, widths = _stepped_widths(recorded)
    walked = lattice.evolve(matrix, origin, 1076, advance)
    _, reference = _reference_walk(matrix, origin, 1076)
    assert widths == list(range(1, 1077))
    assert np.array_equal(walked.packed, reference.packed)
    # Each walker's two ends: 1e-323, then 5e-324, then the tie rounds to 0.
    for t, values in [(1073, [1e-323, 5e-324]), (1074, [5e-324, 0.0]), (1075, [0.0, 0.0])]:
        assert np.array_equal(ends[t], [values, values]), t


@pytest.mark.parametrize("walk", ["qw-complex", "qw-real", "crw"])
def test_a_field_after_time_zero_starts_no_walk(walk):
    # A window with lo > 0 or fewer than time + 1 slots has no plan that a
    # walk from the origin would give it: neither loop starts from it, as
    # from no field, and no step moves it.
    rng = np.random.default_rng(41)
    if walk == "crw":
        matrix, _ = lattice.stack(crw.TransitionMatrix.random(rng), crw.CRWInitialState.random(rng))
        draw = lambda width: rng.uniform(size=(2, width))  # noqa: E731
    else:
        coin = qw.CoinMatrix.random(rng) if walk == "qw-complex" else qw.CoinMatrix.from_alpha_sq(0.3)
        matrix, _ = lattice.stack(coin, qw.QWInitialState.canonical())
        draw = lambda width: rng.normal(size=(2, width)) + 1j * rng.normal(size=(2, width))  # noqa: E731
    assert matrix.dtype == (np.complex128 if walk == "qw-complex" else np.float64)
    step = crw.crw_step if walk == "crw" else qw.step
    for lo in (0, 2, 3):
        for width in range(2, 8):
            start = lattice.Field(10, draw(width), lo)
            kept = start.packed.copy()
            for loop in (lattice.evolve, lattice.return_values):
                with pytest.raises(ValueError, match=_not_pairs(())):
                    loop(matrix, start, 20, step)
            with pytest.raises(ValueError, match=NO_PLAN):
                step(start, matrix)
            assert np.array_equal(start.packed, kept)
