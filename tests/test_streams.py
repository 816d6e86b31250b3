"""Random streams: the numpy Philox4x64-10 kernel against numpy's own
Philox, the draws made from it, and where numpy.random is loaded."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motr
from motr.core import PhiloxStream, RngStream, Streams, _box_muller, philox4x64

U64 = st.integers(0, 2**64 - 1)
# Counters near a carry out of the low lanes, as well as anywhere.
COUNTERS = st.one_of(st.integers(0, 2**256 - 1),
                     st.sampled_from([2**64 - 3, 2**128 - 2, 2**192 - 1, 2**256 - 5]),
                     st.integers(0, 1000))


def _lanes(value: int) -> list[int]:
    return [(value >> (64 * lane)) & (2**64 - 1) for lane in range(4)]


def _numpy_generator(key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@settings(max_examples=150, deadline=None)
@given(key=st.tuples(U64, U64), counter=COUNTERS, n=st.integers(0, 70))
def test_kernel_matches_numpy_philox(key, counter, n):
    blocks = [_lanes((counter + j + 1) % 2**256) for j in range(-(-n // 4))]
    counters = np.array(blocks, dtype=np.uint64).reshape(-1, 4).T
    got = philox4x64(counters, np.array(key, dtype=np.uint64)[:, None]).T.ravel()[:n]
    bits = np.random.Philox(counter=np.array(_lanes(counter), dtype=np.uint64),
                            key=np.array(key, dtype=np.uint64))
    np.testing.assert_array_equal(got, bits.random_raw(n))


def _split(values, counts):
    return np.split(values, np.cumsum(counts)[:-1])


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.tuples(U64, U64), min_size=1, max_size=6), data=st.data())
def test_streams_refilled_together_equal_numpy_philox(keys, data):
    # Each draw takes its own count from each of any rows, refilling every
    # short row at once; every row still reads its own key's sequence and
    # stands where it has drawn to.
    streams, drawn = Streams(keys), [[] for _ in keys]
    for _ in range(data.draw(st.integers(1, 8))):
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, len(keys) - 1), min_size=1))))
        counts = np.array(data.draw(st.lists(st.integers(0, 700), min_size=rows.size,
                                             max_size=rows.size)))
        for b, values in zip(rows.tolist(), _split(streams.raw(rows, counts), counts)):
            drawn[b].append(values)
    for b, key in enumerate(keys):
        total = sum(map(len, drawn[b]))
        want = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(total)
        np.testing.assert_array_equal(np.concatenate(drawn[b] or [want]), want)
        assert streams.state(b) == total


@pytest.mark.parametrize("key", [(0, 0), (7, 999), (2**64 - 1, 3)])
def test_random_uniform_integers_equal_numpy_generator(key):
    stream, ref = RngStream(*key).generator(), _numpy_generator(key)
    low, high = np.array([0.0, -3.0]), np.array([5.0, 1e-6])
    np.testing.assert_array_equal(stream.random(7), ref.random(7))
    assert stream.random() == ref.random()
    np.testing.assert_array_equal(stream.uniform(low, high, size=(9, 2)),
                                  ref.uniform(low, high, size=(9, 2)))
    np.testing.assert_array_equal(stream.integers(0, 2**62, size=11),
                                  ref.integers(0, 2**62, size=11))
    assert stream.integers(0, 2**62) == ref.integers(0, 2**62)
    np.testing.assert_array_equal(stream.random((3, 4)), ref.random((3, 4)))
    with pytest.raises(ValueError, match="only the range"):
        stream.integers(0, 10)


def _reference_draws(key, plan):
    """The draws of ``plan`` ((kind, count) pairs) computed from numpy's raw
    sequence: a normal draw takes one Box-Muller pair at a time and drops
    the second normal of its last pair when its count is odd."""
    raw = iter(np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(10_000))
    out = []
    for kind, count in plan:
        if kind == "random":
            out.append(np.array([(int(next(raw)) >> 11) * 2.0**-53 for _ in range(count)]))
            continue
        z = []
        for _ in range(-(-count // 2)):
            z += _box_muller(np.array([next(raw), next(raw)], dtype=np.uint64)).tolist()
        out.append(np.array(z[:count]))
    return out


def _raw_used(plan):
    return sum(count + count % 2 * (kind == "normal") for kind, count in plan)


@settings(max_examples=80, deadline=None)
@given(key=st.tuples(U64, U64),
       plan=st.lists(st.tuples(st.sampled_from(["normal", "random"]), st.integers(0, 9)),
                     max_size=12))
def test_normal_draws_follow_the_pair_rule_in_any_split(key, plan):
    # Drawn at once or split into draws of one, after odd uniform draws or
    # not, each normal draw takes whole pairs of the raw sequence.
    at_once, one_by_one = PhiloxStream(key), PhiloxStream(key)
    split = [(kind, 1) for kind, count in plan for _ in range(count)]
    singles = iter(_reference_draws(key, split))
    for (kind, count), want in zip(plan, _reference_draws(key, plan)):
        if kind == "random":
            got, single = at_once.random(count), [one_by_one.random() for _ in range(count)]
        else:
            got = at_once.standard_normal(count)
            single = [one_by_one.standard_normal() for _ in range(count)]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.array(single, dtype=float),
                                      [next(singles)[0] for _ in range(count)])
    assert at_once.state() == _raw_used(plan) and one_by_one.state() == _raw_used(split)


@settings(max_examples=60, deadline=None)
@given(seed=U64, lead=st.lists(st.integers(0, 3), min_size=4, max_size=4),
       counts=st.lists(st.integers(0, 9), min_size=4, max_size=4),
       rows=st.sets(st.integers(0, 3), min_size=1))
def test_batch_normals_follow_each_streams_pair_rule(seed, lead, counts, rows):
    # Rows at different positions, some even, some odd: one batch call
    # draws each row's own count of normals, whole pairs from its own
    # sequence, and leaves the rows outside the call where they were.
    streams = Streams([(seed, b) for b in range(4)])
    plans = [[("normal" if b % 2 else "random", k)] for b, k in enumerate(lead)]
    for b, k in enumerate(lead):
        if b % 2:
            streams.normals(np.array([b]), k)
        else:
            streams.raw(np.array([b]), k)
    rows = np.array(sorted(rows))
    counts = np.array(counts)[rows]
    got = _split(streams.normals(rows, counts, 0.3), counts)
    for b, count, z in zip(rows.tolist(), counts.tolist(), got):
        plans[b].append(("normal", count))
        np.testing.assert_array_equal(z, 0.0 + 0.3 * _reference_draws((seed, b), plans[b])[-1])
    for b in range(4):
        assert streams.state(b) == _raw_used(plans[b])


def test_normals_are_the_documented_box_muller_formula():
    # Pinned independently of _box_muller: each pair (a, b) of raw values,
    # as u = ((raw >> 11) + 1) * 2**-53, gives r cos(2 pi u_b), r sin(2 pi u_b)
    # with r = sqrt(-2 log u_a); libm and numpy agree to a few ulps.
    raw = np.random.Philox(key=np.array([9, 4], dtype=np.uint64)).random_raw(12)
    u = [((int(v) >> 11) + 1) * 2.0**-53 for v in raw]
    want = []
    for a, b in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(a))
        want += [r * math.cos(2.0 * math.pi * b), r * math.sin(2.0 * math.pi * b)]
    np.testing.assert_allclose(PhiloxStream((9, 4)).standard_normal(12), want,
                               rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_box_muller_moments_and_tails_within_binomial_bounds(seed):
    n = 200_000
    z = RngStream(seed, 77).generator().standard_normal(n)
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)
    for k in (1.0, 2.0, 3.0, 4.0):
        p = math.erfc(k / math.sqrt(2.0))
        assert abs(int((np.abs(z) > k).sum()) - n * p) <= 5.0 * math.sqrt(n * p * (1 - p)) + 1
    for half in (z < 0, z[0::2] > 0, z[1::2] > 0):      # symmetry, both halves of a pair
        p, m = 0.5, half.size
        assert abs(int(half.sum()) - m * p) <= 5.0 * math.sqrt(m * p * (1 - p))


def test_a_stream_draws_one_way_only():
    kernel = RngStream(5).generator()
    kernel.standard_normal(2)
    with pytest.raises(ValueError, match="cannot use numpy.random"):
        kernel.choice(10, size=3, replace=False)
    through_numpy = RngStream(5).generator()
    want = _numpy_generator((5, 0)).choice(10, size=3, replace=False)
    np.testing.assert_array_equal(through_numpy.choice(10, size=3, replace=False), want)
    with pytest.raises(ValueError, match="cannot draw in numpy"):
        through_numpy.standard_normal(2)
    # Rows of one Streams choose apart; a draw on a row through numpy fails.
    mixed = Streams([(5, 0), (5, 1)])
    np.testing.assert_array_equal(mixed.numpy_generator(0).choice(10, size=3, replace=False),
                                  want)
    mixed.normals(np.array([1]), 4)
    with pytest.raises(ValueError, match="cannot draw in numpy"):
        mixed.normals(np.array([0, 1]), 2)


_LOADED = """
import sys
from motr.cli import main
code = main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("command,keys,loads", [
    ("run", "problem = test1\nnoise_sigma = 0.1\nk_max = 40\nnum_simulations = 3\n", False),
    ("front", "problem = test1\nnoise_sigma = 0.1\nnoise_bounded = true\nfront_rounds = 1\n"
              "front_init_count = 8\nfront_n_q = 5\n", False),
    ("run", "problem = synthetic\nx0 = " + ",".join(["0"] * 10) + "\nk_max = 5\n"
            "num_simulations = 2\n", True),
    ("run", "problem = dataset\ndataset_path = {data}\nx0 = 0,0,0\nk_max = 5\n"
            "num_simulations = 2\n", True),
])
def test_numpy_random_is_loaded_only_for_finite_sum_draws(tmp_path, command, keys, loads):
    # The analytic runs and fronts draw in numpy alone; the synthetic data
    # and the subsamples use numpy's Generator, which loads numpy.random.
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{'1' if i % 3 else '-1'},{i % 2},{i * 0.37 % 1.3}\n"
                            for i in range(40)))
    cfg = tmp_path / "cfg"
    cfg.write_text(keys.format(data=data) + f"output_path = {tmp_path / 'out.csv'}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(motr.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _LOADED, command, str(cfg)],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split()[-2:] == ["0", str(loads)]
