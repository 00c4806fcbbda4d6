"""Load/reward generators, their kind registries, and trace ingestion."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv

from opbandit import environments
from opbandit.bounds import conditional_load_mean
from opbandit.core import RngStream, nearest_rank_quantile
from opbandit.environments import (
    BernoulliReward,
    BetaLoad,
    BinaryRandomLoad,
    DiracReward,
    PeriodicSquareWaveLoad,
    SemiPeriodicLoad,
    TraceData,
    TraceLoad,
    TraceReward,
    UniformLoad,
    load_trace,
)


def assert_prefix_stable(model, n, rng):
    """A draw of m steps is the first m steps of a draw of n, on a fresh
    stream each: loads drawn in pieces equal loads drawn at once."""
    whole = model.sample_loads(n, rng)
    for m in (1, 2, n // 3, n - 1):
        again = RngStream(rng.seed, rng.stream_id) if rng is not None else None
        np.testing.assert_array_equal(model.sample_loads(m, again), whole[:m])


class TestSquareWave:
    def test_even_steps_are_low_odd_steps_high(self):
        model = PeriodicSquareWaveLoad(0.05, 0.05)
        np.testing.assert_array_equal(model.sample_loads(4, None), [0.95, 0.05, 0.95, 0.05])

    def test_bulk_matches_scalar(self):
        assert_prefix_stable(PeriodicSquareWaveLoad(0.1, 0.2), 10, None)

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            PeriodicSquareWaveLoad(0.5, 0.0)


class TestBinaryRandom:
    def test_emits_only_the_two_levels(self):
        model = BinaryRandomLoad(0.0, 0.0, rho=0.5)
        draws = model.sample_loads(1000, RngStream(1, 0))
        assert set(np.unique(draws)) <= {0.0, 1.0}

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.9])
    def test_low_load_frequency_converges(self, rho):
        model = BinaryRandomLoad(0.0, 0.0, rho=rho)
        draws = model.sample_loads(100_000, RngStream(42, 0))
        assert np.mean(draws == 0.0) == pytest.approx(rho, abs=0.01)

    def test_bulk_matches_scalar(self):
        assert_prefix_stable(BinaryRandomLoad(0.05, 0.1, rho=0.3), 200, RngStream(7, 7))

    def test_quantile_steps_at_rho(self):
        model = BinaryRandomLoad(0.05, 0.1, rho=0.3)
        assert model.quantile(0.29) == 0.05
        assert model.quantile(0.3) == 0.05
        assert model.quantile(0.31) == 0.9

    def test_degenerate_rho_gives_constant_load(self):
        model = BinaryRandomLoad(0.0, 0.0, rho=0.0)
        assert set(model.sample_loads(100, RngStream(0, 0))) == {1.0}


class TestBetaLoad:
    def test_sample_mean(self):
        # Beta(2,2) has mean 1/2
        draws = BetaLoad(2, 2).sample_loads(100_000, RngStream(3, 1))
        assert draws.mean() == pytest.approx(0.5, abs=0.01)

    def test_bulk_matches_scalar(self):
        assert_prefix_stable(BetaLoad(2, 2), 50, RngStream(11, 4))

    def test_quantile_matches_inverse_cdf(self):
        model = BetaLoad(2, 2)
        assert model.quantile(0.05) == betaincinv(2, 2, 0.05)
        assert model.quantile(0.95) == betaincinv(2, 2, 0.95)

    def test_range(self):
        draws = BetaLoad(0.5, 3).sample_loads(1000, RngStream(5, 0))
        assert np.all((draws >= 0) & (draws <= 1))


class TestUniformLoad:
    def test_identity_transform(self):
        rng = RngStream(9, 0)
        us = RngStream(rng.seed, rng.stream_id).random(100)
        np.testing.assert_array_equal(UniformLoad().sample_loads(100, rng), us)

    def test_conditional_mean_below(self):
        assert conditional_load_mean(UniformLoad(), 0.4) == 0.2
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\] for uniform load"):
            conditional_load_mean(UniformLoad(), 0.0)


class TestSemiPeriodic:
    def test_range_and_periodic_envelope(self):
        model = SemiPeriodicLoad(period=24, base=0.6, amplitude=0.3)
        draws = model.sample_loads(24 * 50, RngStream(1, 1))
        assert np.all((draws >= 0) & (draws <= 1))
        # peak envelope slots should carry more load than trough slots on average
        arr = draws.reshape(50, 24)
        phase_mean = arr.mean(axis=0)
        assert phase_mean.max() > phase_mean.min() + 0.2

    def test_quantiles_are_monotone(self):
        model = SemiPeriodicLoad()
        assert model.quantile(0.05) < model.quantile(0.5) < model.quantile(0.95)

    def test_reference_sample_drawn_once(self, monkeypatch):
        model = SemiPeriodicLoad(period=100)
        # the quantile of the whole 200k-load reference sample, sorted; the
        # model finds it without drawing that sample
        reference = np.sort(model.sample_loads(200_000, RngStream(0x5EED_10AD, 0)))
        calls = []
        sample_loads = SemiPeriodicLoad.sample_loads
        monkeypatch.setattr(
            SemiPeriodicLoad,
            "sample_loads",
            lambda self, n, rng: calls.append(n) or sample_loads(self, n, rng),
        )
        for p in (0.05, 0.95):
            assert model.quantile(p) == float(reference[math.ceil(p * 200_000) - 1])
        assert calls == []

    @settings(max_examples=25)
    @given(
        period=st.integers(2, 5000),
        base=st.floats(0.0, 1.0),
        swing=st.floats(0.0, 1.0),
        noise=st.tuples(st.floats(0.05, 60.0), st.floats(0.05, 60.0)),
        where=st.one_of(
            st.sampled_from(["k=1", "k=n", 1e-7, 1.0 - 1e-7]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ),
    )
    # the noise's tails, where the table's absolute margin decides the brackets
    @example(period=288, base=0.6, swing=0.875, noise=(0.05, 1.0), where=1e-7)
    @example(period=2, base=0.5, swing=1.0, noise=(60.0, 0.05), where=1.0 - 1e-7)
    def test_quantile_equals_full_sample_quantile(self, period, base, swing, noise, where):
        # the bracket selection against sorting the whole reference sample
        amplitude = swing * min(base, 1.0 - base)
        model = SemiPeriodicLoad(period, base, amplitude, *noise)
        n = max(1, 200_000 // period) * period
        p = {"k=1": 0.5 / n, "k=n": 1.0 - 0.5 / n}.get(where, where)
        sample = np.sort(model.sample_loads(n, RngStream(0x5EED_10AD, 0)))
        assert model.quantile(p) == nearest_rank_quantile(sample, p)

    def test_rejects_bad_envelope(self):
        with pytest.raises(ValueError):
            SemiPeriodicLoad(base=0.9, amplitude=0.3)


@pytest.mark.parametrize(
    "model",
    [
        PeriodicSquareWaveLoad(0.1, 0.2),
        BinaryRandomLoad(0.05, 0.1, rho=0.3),
        BetaLoad(0.5, 3.0),
        UniformLoad(),
        TraceLoad(TraceData(np.arange(1.0, 8.0) / 7, None, 7.0)),
        SemiPeriodicLoad(period=24),
    ],
    ids=lambda m: m.kind,
)
def test_loads_drawn_in_chunks_equal_one_draw(model, caplog):
    # the index engine draws loads a chunk at a time from a start step; no
    # draw logs a trace's wraps (build_plan does, once per run)
    rng = RngStream(8, 3) if model.uses_rng else None
    with caplog.at_level("INFO"):
        whole = model.sample_loads(300, rng)
        again = RngStream(rng.seed, rng.stream_id) if rng is not None else None
        cuts = ((1, 1), (2, 6), (8, 7), (15, 1), (16, 100), (116, 185))
        parts = [model.sample_loads(n, again, t0) for t0, n in cuts]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    assert not [r for r in caplog.records if "wrapping" in r.getMessage()]


#: one model of every load kind; the trace's 7 rows wrap within a span
MASKED = {
    "square-wave": PeriodicSquareWaveLoad(0.1, 0.2),
    "binary": BinaryRandomLoad(0.05, 0.1, rho=0.3),
    "beta": BetaLoad(0.5, 3.0),
    "uniform": UniformLoad(),
    "trace": TraceLoad(TraceData(np.arange(1.0, 8.0) / 7, None, 7.0)),
    "semiperiodic": SemiPeriodicLoad(period=24),
}


@given(
    kind=st.sampled_from(sorted(environments.LOAD_KINDS)),
    mask=st.lists(st.booleans(), min_size=1, max_size=120),
    t0=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="trace", mask=[True, False, True] * 5, t0=5, seed=0)  # across the wrap at step 8
def test_masked_loads_equal_the_full_draw_there(kind, mask, t0, seed):
    # the loads computed at a mask are the whole span's there, bit for bit,
    # the rest are +0.0, and the stream ends where the whole span's does
    model, mask = MASKED[kind], np.array(mask)
    streams = [RngStream(seed, 4), RngStream(seed, 4)] if model.uses_rng else [None, None]
    whole = model.sample_loads(len(mask), streams[0], t0)
    masked = model.sample_loads(len(mask), streams[1], t0, where=mask)
    assert masked.dtype == whole.dtype == np.float64
    np.testing.assert_array_equal(masked[mask].view(np.int64), whole[mask].view(np.int64))
    assert not masked[~mask].view(np.int64).any()
    if model.uses_rng:
        assert streams[0].random() == streams[1].random()


class TestRewardModels:
    def test_dirac_is_deterministic(self):
        model = DiracReward((0.6, 0.4))
        np.testing.assert_array_equal(model.reward_rows(10, 90, None), [[0.6, 0.4]] * 90)

    def test_bernoulli_mean(self):
        model = BernoulliReward((0.25, 0.5))
        draws = model.reward_rows(1, 100_000, RngStream(21, 0))
        assert draws.mean(axis=0) == pytest.approx([0.25, 0.5], abs=0.01)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        # one uniform per step, shared by the arms: a success of arm 0
        # (mean 0.25) is a success of arm 1 (mean 0.5)
        assert np.all(draws[:, 0] <= draws[:, 1])

    @pytest.mark.parametrize(
        "model",
        [
            DiracReward((0.6, 0.4)),
            BernoulliReward((0.3, 0.7, 0.5)),
            TraceReward(TraceData(np.ones(7), np.arange(14.0).reshape(7, 2) / 13, 1.0)),
        ],
        ids=["dirac", "bernoulli", "trace"],
    )
    def test_rows_drawn_in_chunks_equal_one_draw(self, model):
        # the run loop draws rewards a chunk at a time
        whole = model.reward_rows(1, 300, RngStream(8, 2))
        rng = RngStream(8, 2)
        parts = [model.reward_rows(t0 + 1, n, rng) for t0, n in ((0, 1), (1, 99), (100, 200))]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_five_arm_vector_from_config(self):
        from opbandit.config import RewardSpec

        spec = RewardSpec.from_dict(
            {"kind": "bernoulli", "means": [0.05, 0.1, 0.15, 0.2, 0.25]}, "reward"
        )
        model, _ = spec.build("reward")
        assert model.means == (0.05, 0.1, 0.15, 0.2, 0.25)

    def test_rejects_out_of_range_mean(self):
        with pytest.raises(ValueError):
            DiracReward((0.5, 1.5))


class TestTraces:
    def test_loads_scaled_by_max(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.2\n0.4\n0.8\n")
        data = load_trace(p)
        np.testing.assert_allclose(data.loads, [0.25, 0.5, 1.0])
        assert data.scale == 0.8
        assert data.rewards is None

    def test_reward_columns_used_verbatim(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("load,a,b\n2.0,0.5,0.25\n4.0,1.0,0.75\n")
        data = load_trace(p)
        np.testing.assert_allclose(data.loads, [0.5, 1.0])
        np.testing.assert_allclose(data.rewards, [[0.5, 0.25], [1.0, 0.75]])
        model = TraceReward(data)
        assert model.means == (0.75, 0.5)
        # steps 2..3: row 2, then row 1 again (wrapped)
        np.testing.assert_array_equal(model.reward_rows(2, 2, None), [[1.0, 0.75], [0.5, 0.25]])

    def test_rejects_reward_outside_unit_interval(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,0.5,0.2,1.2\n")
        with pytest.raises(ValueError, match="outside"):
            load_trace(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0\n2.0\nnope\n")
        with pytest.raises(ValueError, match="line 3"):
            load_trace(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,0.5\n2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_trace(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_trace(p)

    def test_trace_load_wraps(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0\n2.0\n")
        model = TraceLoad(load_trace(p))
        np.testing.assert_allclose(model.sample_loads(5, None), [0.5, 1.0, 0.5, 1.0, 0.5])

    def test_trace_quantile_nearest_rank(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("".join(f"{v}\n" for v in range(1, 11)))
        model = TraceLoad(load_trace(p))
        assert model.quantile(0.05) == pytest.approx(0.1)
        assert model.quantile(0.95) == pytest.approx(1.0)

    @given(
        n_cols=st.integers(1, 4),
        cells=st.lists(st.floats(0.0, 1.0) | st.integers(0, 10**6), min_size=1, max_size=60),
        header=st.booleans(),
        spaced=st.booleans(),
        blank_every=st.integers(2, 10),
        newline=st.sampled_from(["\n", "\r\n"]),
        fmt=st.sampled_from(["{!r}", "{:.6g}", "{:.17e}"]),
    )
    def test_fast_parse_equals_line_loop(self, n_cols, cells, header, spaced, blank_every, newline, fmt):
        rows = [cells[i : i + n_cols] for i in range(0, len(cells) - n_cols + 1, n_cols)]
        assume(rows)
        # loads any size, rewards in [0, 1]
        rows = [[r[0], *(min(float(v), 1.0) for v in r[1:])] for r in rows]
        sep = " , " if spaced else ","
        lines = ["load" + ",r" * (n_cols - 1)] if header else []
        for i, r in enumerate(rows):
            lines.append(sep.join(fmt.format(float(v)) for v in r))
            if i % blank_every == 0:
                lines.append("")
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_bytes(newline.join(lines).encode())
            reference = environments._load_trace_lines(p)
            with mock.patch.object(environments, "_load_trace_lines", side_effect=AssertionError):
                fast = load_trace(p)  # without falling back to the line loop
        assert fast.loads.tobytes() == reference.loads.tobytes()
        assert fast.scale == reference.scale
        if reference.rewards is None:
            assert fast.rewards is None
        else:
            assert fast.rewards.shape == reference.rewards.shape
            assert fast.rewards.tobytes() == reference.rewards.tobytes()

    @given(data=st.data(), n_cols=st.integers(1, 4), n_rows=st.integers(2, 20))
    def test_bad_line_named(self, data, n_cols, n_rows):
        # a valid trace, then one data line after the first corrupted, and
        # maybe a second one further down: the error names the first
        draw = data.draw
        rows = [
            [repr(draw(st.floats(0.0, 1e6)))] + [repr(draw(st.floats(0.0, 1.0))) for _ in range(n_cols - 1)]
            for _ in range(n_rows)
        ]
        bad = draw(st.lists(st.integers(1, n_rows - 1), min_size=1, max_size=2, unique=True).map(sorted))
        phrases = [self.corrupt(draw, rows[i], n_cols) for i in bad]
        sep = draw(st.sampled_from([",", " , "]))
        lines = ["load" + ",r" * (n_cols - 1)] if draw(st.booleans()) else []
        linenos = []
        for cells in rows:
            if draw(st.booleans()):
                lines.append("")
            lines.append(sep.join(cells))
            linenos.append(len(lines))
        newline = draw(st.sampled_from(["\n", "\r\n"]))
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_bytes(newline.join(lines).encode())
            with pytest.raises(ValueError) as err:
                load_trace(p)
        assert str(err.value).startswith(f"{p}: line {linenos[bad[0]]}: {phrases[0]}")

    @staticmethod
    def corrupt(draw, cells, n_cols):
        """Corrupt one data line's ``cells`` in place; the line loop's
        phrase for it."""
        kinds = ["non-numeric", "load", "too many"] + (["reward", "too few"] if n_cols > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "non-numeric":  # an empty cell only where the line stays non-blank
            cells[draw(st.integers(0, n_cols - 1))] = draw(
                st.sampled_from(["x", "n/a", "1.0.0", "0x1f", "1e", "--1"] + [""] * (n_cols > 1))
            )
            return "non-numeric cell"
        if kind == "load":
            cells[0] = draw(st.sampled_from(["nan", "inf", "-inf", "-0.5", "-1e-300"]))
            return "load must be finite and >= 0"
        if kind == "reward":
            column = draw(st.integers(1, n_cols - 1))
            cells[column] = draw(st.sampled_from(["nan", "-0.1", "1.5", "inf", "-inf"]))
            return f"reward column {column + 1} value"
        if kind == "too many":
            cells.append("0.5")
        else:
            cells.pop()
        return f"expected {n_cols} columns, got {len(cells)}"
