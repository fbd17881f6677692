import numpy as np
import pytest

from qram.rng import PortableRng


def test_stream_is_frozen():
    # Pinned outputs guard the generator against accidental edits; any
    # change here invalidates every recorded scenario and weight file.
    r = PortableRng(0)
    assert [r.next_u64() for _ in range(3)] == [
        8916199331640804048, 16032783972208265725, 12954103179475586193]
    r = PortableRng(0)
    assert [r.random() for _ in range(3)] == [
        0.4833481342839381, 0.8691389606829488, 0.7022433404894405]


def test_same_seed_same_stream():
    a, b = PortableRng(1234), PortableRng(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a, b = PortableRng(1), PortableRng(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_zero_seed_is_healthy():
    r = PortableRng(0)
    draws = [r.random() for _ in range(1000)]
    assert 0.4 < np.mean(draws) < 0.6


def test_uniform_bounds():
    r = PortableRng(99)
    for _ in range(1000):
        x = r.uniform(5.0, 150.0)
        assert 5.0 <= x < 150.0


def test_randint_range_and_coverage():
    r = PortableRng(5)
    draws = [r.randint(3) for _ in range(300)]
    assert set(draws) == {0, 1, 2}


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_array_draw_is_the_scalar_stream(seed):
    # Sizes below, at and beyond the 64 states stepped one by one, at and
    # beyond each doubling, and the 39,900 weights of the default network;
    # the next scalar draw checks the state left behind (unchanged at n = 0).
    for n in (0, 1, 63, 64, 65, 127, 128, 129, 4097, 39_900):
        a, b = PortableRng(seed), PortableRng(seed)
        draws = a.uniforms(-0.25, 0.75, n)
        assert draws.dtype == np.float64 and draws.shape == (n,)
        expected = np.array([b.uniform(-0.25, 0.75) for _ in range(n)])
        assert draws.tobytes() == expected.tobytes(), n
        assert a.next_u64() == b.next_u64(), n
