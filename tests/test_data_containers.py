"""Tests for MultivariateTimeSeries, scalers, windows, loaders and splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DataLoader,
    MinMaxScaler,
    MultivariateTimeSeries,
    SlidingWindowDataset,
    SplitRatios,
    StandardScaler,
    chronological_split,
)


@pytest.fixture
def series(rng):
    values = rng.normal(loc=50.0, scale=10.0, size=(200, 5, 1))
    return MultivariateTimeSeries(values, step_minutes=5, name="test")


class TestMultivariateTimeSeries:
    def test_shape_accessors(self, series):
        assert series.num_steps == 200
        assert series.num_nodes == 5
        assert series.num_channels == 1
        assert len(series) == 200

    def test_2d_input_promoted_to_3d(self, rng):
        series = MultivariateTimeSeries(rng.normal(size=(10, 3)))
        assert series.values.shape == (10, 3, 1)

    def test_invalid_shape_raises(self, rng):
        with pytest.raises(ValueError):
            MultivariateTimeSeries(rng.normal(size=(10,)))

    def test_node_ids_default_and_mismatch(self, rng):
        series = MultivariateTimeSeries(rng.normal(size=(5, 3, 1)))
        assert series.node_ids == ["node_0", "node_1", "node_2"]
        with pytest.raises(ValueError):
            MultivariateTimeSeries(rng.normal(size=(5, 3, 1)), node_ids=["a"])

    def test_minute_of_day_wraps(self):
        series = MultivariateTimeSeries(np.zeros((300, 2, 1)), step_minutes=5)
        minutes = series.minute_of_day()
        assert minutes.max() < 24 * 60
        assert minutes[0] == 0
        assert minutes[288] == 0  # one full day of 5-minute steps

    def test_day_of_week_increments(self):
        series = MultivariateTimeSeries(np.zeros((2 * 288, 2, 1)), step_minutes=5)
        days = series.day_of_week()
        assert days[0] == 0 and days[-1] == 1

    def test_time_covariates_channel_count_and_range(self, series):
        augmented = series.with_time_covariates(include_day_of_week=True)
        assert augmented.num_channels == 3
        assert augmented.values[..., 1].max() < 1.0
        assert augmented.values[..., 2].max() < 1.0
        # original channel untouched
        assert np.allclose(augmented.values[..., 0], series.values[..., 0])

    def test_slice_steps_adjusts_start_minute(self, series):
        sliced = series.slice_steps(10, 60)
        assert sliced.num_steps == 50
        assert sliced.start_minute == 10 * 5

    def test_select_nodes_subsets_adjacency(self, rng):
        adjacency = rng.random((5, 5))
        series = MultivariateTimeSeries(rng.normal(size=(20, 5, 1)), adjacency=adjacency)
        subset = series.select_nodes([0, 3])
        assert subset.num_nodes == 2
        assert np.allclose(subset.adjacency, adjacency[np.ix_([0, 3], [0, 3])])
        assert subset.node_ids == ["node_0", "node_3"]

    def test_derived_series_share_one_read_only_adjacency(self, rng):
        adjacency = rng.random((5, 5))
        series = MultivariateTimeSeries(rng.normal(size=(20, 5, 1)), adjacency=adjacency)
        derived = [series.slice_steps(2, 12), series.with_time_covariates(),
                   series.slice_steps(0, 10).with_time_covariates(include_day_of_week=True)]
        for other in derived:
            assert np.shares_memory(other.adjacency, adjacency)
            assert np.array_equal(other.adjacency, adjacency)
            with pytest.raises(ValueError):
                other.adjacency[0, 1] = 2.0
        assert series.adjacency.flags.writeable  # the caller's array is left alone
        subset = series.select_nodes([0, 3])
        assert not np.shares_memory(subset.adjacency, adjacency)
        assert subset.adjacency.flags.writeable

    def test_splits_and_loaders_share_the_series_adjacency(self, rng):
        from repro.experiments.common import prepare_data_from_series

        adjacency = rng.random((6, 6))
        series = MultivariateTimeSeries(rng.normal(size=(80, 6, 1)), adjacency=adjacency)
        data = prepare_data_from_series(series, 4, 4, batch_size=8)
        loaders = (data.train_loader, data.val_loader, data.test_loader)
        holders = [data.train, data.val, data.test]
        holders += [loader.dataset.series for loader in loaders]
        for holder in holders:
            assert np.shares_memory(holder.adjacency, adjacency)
            with pytest.raises(ValueError):
                holder.adjacency[...] = 0.0
        assert data.adjacency is adjacency


class TestScalers:
    def test_standard_scaler_roundtrip(self, rng):
        values = rng.normal(loc=30, scale=7, size=(50, 4))
        scaler = StandardScaler().fit(values)
        transformed = scaler.transform(values)
        assert abs(transformed.mean()) < 1e-9
        assert np.allclose(scaler.inverse_transform(transformed), values)

    def test_standard_scaler_constant_input(self):
        scaler = StandardScaler().fit(np.full((10, 2), 3.0))
        assert scaler.std_ == 1.0
        assert np.allclose(scaler.transform(np.full((2, 2), 3.0)), 0.0)

    def test_standard_scaler_unfit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones(3))

    def test_minmax_scaler_range_and_roundtrip(self, rng):
        values = rng.normal(size=(40, 3)) * 5
        scaler = MinMaxScaler().fit(values)
        transformed = scaler.transform(values)
        assert transformed.min() >= 0.0 and transformed.max() <= 1.0
        assert np.allclose(scaler.inverse_transform(transformed), values)

    def test_minmax_scaler_constant_input(self):
        scaler = MinMaxScaler().fit(np.full((5, 2), 7.0))
        assert np.allclose(scaler.transform(np.full((3, 2), 7.0)), 0.0)

    def test_fit_transform_shortcut(self, rng):
        values = rng.normal(size=(20, 2))
        assert np.allclose(StandardScaler().fit_transform(values),
                           StandardScaler().fit(values).transform(values))


class TestSlidingWindows:
    def test_sample_shapes_and_count(self, series):
        dataset = SlidingWindowDataset(series, history=12, horizon=6)
        assert len(dataset) == 200 - 12 - 6 + 1
        x, y = dataset[0]
        assert x.shape == (12, 5, 1)
        assert y.shape == (6, 5, 1)

    def test_windows_are_consecutive(self, series):
        dataset = SlidingWindowDataset(series, history=3, horizon=2)
        x, y = dataset[10]
        assert np.allclose(x, series.values[10:13])
        assert np.allclose(y, series.values[13:15, :, :1])

    def test_separate_target_series(self, series, rng):
        scaled = MultivariateTimeSeries(series.values * 0.0, step_minutes=5)
        dataset = SlidingWindowDataset(scaled, history=4, horizon=2, target_series=series)
        x, y = dataset[5]
        assert np.allclose(x, 0.0)
        assert np.allclose(y, series.values[9:11, :, :1])

    def test_out_of_range_index(self, series):
        dataset = SlidingWindowDataset(series, history=4, horizon=2)
        with pytest.raises(IndexError):
            dataset[len(dataset)]

    def test_too_short_series_raises(self, rng):
        short = MultivariateTimeSeries(rng.normal(size=(5, 2, 1)))
        with pytest.raises(ValueError):
            SlidingWindowDataset(short, history=4, horizon=3)

    def test_arrays_materialisation(self, series):
        dataset = SlidingWindowDataset(series, history=4, horizon=2)
        xs, ys = dataset.arrays()
        assert xs.shape == (len(dataset), 4, 5, 1)
        assert ys.shape == (len(dataset), 2, 5, 1)

    def test_batch_matches_per_item_gather_exactly(self, series, rng):
        dataset = SlidingWindowDataset(series, history=7, horizon=3)
        indices = rng.permutation(len(dataset))[:25]
        x_batch, y_batch = dataset.batch(indices)
        x_items, y_items = zip(*(dataset[int(i)] for i in indices))
        assert np.array_equal(x_batch, np.stack(x_items))
        assert np.array_equal(y_batch, np.stack(y_items))

    def test_batch_with_separate_target_series(self, series):
        scaled = MultivariateTimeSeries(series.values * 2.0, step_minutes=5)
        dataset = SlidingWindowDataset(scaled, history=4, horizon=2, target_series=series)
        x, y = dataset.batch(np.array([0, 3, 9]))
        assert np.array_equal(x, np.stack([dataset[i][0] for i in (0, 3, 9)]))
        assert np.array_equal(y, np.stack([dataset[i][1] for i in (0, 3, 9)]))

    def test_batch_rejects_bad_indices(self, series):
        dataset = SlidingWindowDataset(series, history=4, horizon=2)
        with pytest.raises(IndexError):
            dataset.batch(np.array([0, len(dataset)]))
        with pytest.raises(IndexError):
            dataset.batch(np.array([-1]))
        with pytest.raises(ValueError):
            dataset.batch(np.array([[0, 1]]))

    def test_batch_empty_indices(self, series):
        dataset = SlidingWindowDataset(series, history=4, horizon=2)
        x, y = dataset.batch(np.array([], dtype=np.int64))
        assert x.shape == (0, 4, 5, 1)
        assert y.shape == (0, 2, 5, 1)


class TestDataLoader:
    def test_batch_shapes_and_count(self, series):
        dataset = SlidingWindowDataset(series, history=6, horizon=3)
        loader = DataLoader(dataset, batch_size=16)
        batches = list(loader)
        assert len(batches) == len(loader)
        assert batches[0][0].shape == (16, 6, 5, 1)
        total = sum(batch[0].shape[0] for batch in batches)
        assert total == len(dataset)

    def test_drop_last(self, series):
        dataset = SlidingWindowDataset(series, history=6, horizon=3)
        loader = DataLoader(dataset, batch_size=16, drop_last=True)
        assert all(batch[0].shape[0] == 16 for batch in loader)

    def test_shuffle_changes_order_but_not_content(self, series):
        dataset = SlidingWindowDataset(series, history=6, horizon=3)
        plain = np.concatenate([x for x, _ in DataLoader(dataset, batch_size=32)])
        shuffled = np.concatenate([x for x, _ in DataLoader(dataset, batch_size=32, shuffle=True,
                                                            seed=1)])
        assert not np.allclose(plain, shuffled)
        assert np.allclose(np.sort(plain.reshape(plain.shape[0], -1), axis=0),
                           np.sort(shuffled.reshape(shuffled.shape[0], -1), axis=0))

    def test_shuffle_reproducible_given_seed(self, series):
        dataset = SlidingWindowDataset(series, history=6, horizon=3)
        first = np.concatenate([x for x, _ in DataLoader(dataset, batch_size=8, shuffle=True, seed=5)])
        second = np.concatenate([x for x, _ in DataLoader(dataset, batch_size=8, shuffle=True, seed=5)])
        # each DataLoader has its own RNG seeded identically, but successive epochs differ
        assert first.shape == second.shape

    def test_invalid_batch_size(self, series):
        dataset = SlidingWindowDataset(series, history=6, horizon=3)
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)

    def test_loader_batches_match_per_item_path(self, series):
        dataset = SlidingWindowDataset(series, history=6, horizon=3)
        for shuffle in (False, True):
            for x, y in DataLoader(dataset, batch_size=13, shuffle=shuffle, seed=3):
                # recover each sample from the dataset and compare exactly
                for row in range(x.shape[0]):
                    matches = [
                        i for i in range(len(dataset))
                        if np.array_equal(dataset[i][0], x[row])
                        and np.array_equal(dataset[i][1], y[row])
                    ]
                    assert matches, "loader produced a batch row not found in the dataset"


class TestSplits:
    def test_default_ratios_are_paper_ratios(self):
        ratios = SplitRatios()
        assert (ratios.train, ratios.val, ratios.test) == (0.7, 0.1, 0.2)

    def test_invalid_ratios_raise(self):
        with pytest.raises(ValueError):
            SplitRatios(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            SplitRatios(1.0, 0.0, 0.0)

    def test_split_sizes_and_continuity(self, series):
        train, val, test = chronological_split(series)
        assert train.num_steps + val.num_steps + test.num_steps == series.num_steps
        assert train.num_steps == pytest.approx(140, abs=2)
        # continuity: the first test value follows the last val value in the original series
        assert np.allclose(test.values[0], series.values[train.num_steps + val.num_steps])

    def test_split_preserves_order(self, series):
        train, _, _ = chronological_split(series)
        assert np.allclose(train.values, series.values[: train.num_steps])


@settings(max_examples=25, deadline=None)
@given(st.integers(30, 120), st.integers(1, 8), st.integers(1, 6), st.integers(1, 6))
def test_property_window_count_formula(num_steps, num_nodes, history, horizon):
    values = np.zeros((num_steps, num_nodes, 1))
    series = MultivariateTimeSeries(values)
    dataset = SlidingWindowDataset(series, history=history, horizon=horizon)
    assert len(dataset) == num_steps - history - horizon + 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_property_scaler_inverse_is_identity(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 20), size=(30, 3))
    scaler = StandardScaler().fit(values)
    assert np.allclose(scaler.inverse_transform(scaler.transform(values)), values, atol=1e-9)
