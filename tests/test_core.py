import numpy as np
import pytest

from helpers import random_small_space
from qram.core import (Allocation, Configuration, ConfigSpace,
                       DEFAULT_CONFIG_SPACE, ResourceBounds, _sequential_prefix,
                       _sequential_sum, allocation_usage, compound_resource,
                       costs)
from qram.rng import PortableRng


def test_configuration_rejects_tx_longer_than_dwell():
    with pytest.raises(ValueError):
        Configuration(dwell_length=100.0, transmit_duration=100.0,
                      transmit_power=1.0)
    with pytest.raises(ValueError):
        Configuration(dwell_length=-1.0, transmit_duration=2.0, transmit_power=1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_configuration_rejects_non_finite(bad):
    for fields in ((bad, 2.0, 1.0), (100.0, bad, 1.0), (100.0, 2.0, bad)):
        with pytest.raises(ValueError):
            Configuration(*fields)


def test_configuration_ordering_is_lexicographic():
    a = Configuration(100.0, 2.0, 4.0)
    b = Configuration(100.0, 4.0, 1.0)
    assert a < b


def test_default_space_has_90_configs():
    assert DEFAULT_CONFIG_SPACE.size == 90


def test_config_space_round_trip_indexing():
    space = DEFAULT_CONFIG_SPACE
    listed = list(space)
    assert listed == [space.config_at(i) for i in range(space.size)]
    assert listed == sorted(listed)  # index order is lexicographic order


def test_index_of_inverts_config_at():
    rng = PortableRng(17)
    for space in (DEFAULT_CONFIG_SPACE, *(random_small_space(rng) for _ in range(8))):
        assert [space.index_of(space.config_at(i)) for i in range(space.size)] \
            == list(range(space.size))
        d, t, p = space.dwell_grid, space.tx_duration_grid, space.tx_power_grid
        # Equal fields, not the grid's own object, as read from a result file.
        assert space.index_of(Configuration(int(d[-1]), t[-1], p[-1])) \
            == space.size - 1
        for off in (Configuration(d[-1] + 1.0, t[0], p[0]),
                    Configuration(d[0], t[0] + 0.5, p[0]),
                    Configuration(d[0], t[0], p[-1] * 2.0)):
            with pytest.raises(ValueError, match="is not on the grid"):
                space.index_of(off)


def test_config_space_validation():
    with pytest.raises(ValueError):
        ConfigSpace((), (2.0,), (1.0,))
    with pytest.raises(ValueError):
        ConfigSpace((100.0, 100.0), (2.0,), (1.0,))  # not strictly increasing
    with pytest.raises(ValueError):
        ConfigSpace((5.0, 100.0), (2.0, 6.0), (1.0,))  # 6 ms tx inside 5 ms dwell


def test_costs_examples():
    occ, pw = costs(np.array([100.0, 1100.0]), np.array([2.0, 10.0]),
                    np.array([1.0, 4.0]))
    assert occ[0] == 2.0 / 100.0
    assert pw[0] == 1.0 * 2.0 / 100.0
    assert occ[1] == pytest.approx(10.0 / 1100.0, rel=1e-15)
    assert pw[1] == pytest.approx(4.0 * 10.0 / 1100.0, rel=1e-15)


def test_costs_is_pure():
    columns = (np.array([500.0]), np.array([6.0]), np.array([2.0]))
    a, b = costs(*columns), costs(*columns)
    assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def test_compound_resource_examples():
    bounds = ResourceBounds(bounds=(0.5, 1.0), compound_weights=(1.0, 1.0))
    assert compound_resource(np.zeros(2), bounds) == 0.0
    assert compound_resource(np.array([0.5, 1.0]), bounds) == 2.0
    assert type(compound_resource(np.array([0.5, 1.0]), bounds)) is float
    assert compound_resource(np.array([0.02, 0.02]), bounds) == pytest.approx(0.06)


def test_compound_resource_monotone_in_weighted_components():
    bounds = ResourceBounds(bounds=(0.5, 2.0), compound_weights=(1.0, 3.0))
    rng = np.random.default_rng(0)
    for _ in range(100):
        rv = rng.uniform(0.0, 1.0, size=2)
        base = compound_resource(rv, bounds)
        for j in range(2):
            bumped = rv.copy()
            bumped[j] += 0.01
            assert compound_resource(bumped, bounds) > base


def test_compound_resource_length_mismatch():
    bounds = ResourceBounds(bounds=(0.5, 1.0), compound_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        compound_resource(np.array([1.0]), bounds)


def test_resource_bounds_validation():
    with pytest.raises(ValueError):
        ResourceBounds(bounds=(0.0, 1.0), compound_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        ResourceBounds(bounds=(1.0, 1.0), compound_weights=(0.0, 0.0))
    with pytest.raises(ValueError):
        ResourceBounds(bounds=(1.0, 1.0), compound_weights=(-1.0, 2.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_resource_bounds_reject_non_finite(bad):
    with pytest.raises(ValueError):
        ResourceBounds(bounds=(bad, 1.0), compound_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        ResourceBounds(bounds=(1.0, 1.0), compound_weights=(1.0, bad))


def test_allocation_usage_sums_components():
    alloc = Allocation(assignment={
        0: Configuration(100.0, 2.0, 1.0),
        1: Configuration(100.0, 2.0, 1.0),
    })
    usage = allocation_usage(alloc)
    assert usage[0] == pytest.approx(0.04)
    assert usage[1] == pytest.approx(0.04)
    assert len(Allocation().assignment) == 0


def test_row_sums_fold_left_to_right():
    # A left-to-right fold rounds each 2**-53 away: 1 + 2**-53 ties to 1.
    # Pairwise summation would add the two halves first and give
    # 1 + 2**-52.  ``_sequential_sum`` and the ledger's tail fold both
    # rely on the sequential fold, resumed from any running sum.
    rows = np.array([1.0, 2**-53, 2**-53])
    assert np.cumsum(rows)[-1] == 1.0
    assert _sequential_prefix(rows)[-1] == 1.0
    assert _sequential_sum(np.column_stack([rows, rows[::-1]])).tolist() == [
        1.0, 1.0 + 2**-52]
