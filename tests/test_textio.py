"""Byte and bit oracles for the text tables the package reads and writes.

The reference writers below are the one-line-at-a-time writers the package
used before its tables went through one chunked writer; every file must
stay byte-identical to theirs.  Reading a file back, in any row order, must
give bit-identical arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdnn import cli
from sfdnn.basis import Grid
from sfdnn.errors import DataError
from sfdnn.simgen import ScenarioConfig, generate_scenario_dataset
from sfdnn.spatial import (
    DENSE_LIMIT,
    SpatialWeightMatrix,
    build_inverse_distance_weights,
    build_knn_bisquare_weights,
    load_weights,
    save_weights,
)

# values whose %.17g text is easy to get wrong
SPECIALS = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789.0]


def _fmt17(x):
    return f"{float(x):.17g}"


def reference_save_weights(W, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {W.n} row_normalized {1 if W.row_normalized else 0}\n")
        if W.is_sparse:
            coo = W.weights.tocoo()
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v:.17g}\n")
        else:
            rows, cols = np.nonzero(W.weights)
            for i, j in zip(rows, cols):
                fh.write(f"{i} {j} {W.weights[i, j]:.17g}\n")


def reference_write_functional_csv(path, functional, grid):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("location_id,predictor_id,u,value\n")
        for p, curves in enumerate(functional, start=1):
            for i in range(curves.shape[0]):
                for u, v in zip(grid.points, curves[i]):
                    fh.write(f"{i},{p},{_fmt17(u)},{_fmt17(v)}\n")


def reference_write_scalars_csv(path, scalars, response):
    j = scalars.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("location_id," + ",".join(f"z{k + 1}" for k in range(j)) + ",y\n")
        for i in range(scalars.shape[0]):
            cells = [str(i)] + [_fmt17(v) for v in scalars[i]] + [_fmt17(response[i])]
            fh.write(",".join(cells) + "\n")


def reference_write_predictions(path, preds):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("location_id,predicted\n")
        for i, v in enumerate(preds):
            fh.write(f"{i},{_fmt17(v)}\n")


def same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def shuffle_rows(path, seed):
    lines = path.read_text().splitlines(keepends=True)
    body = lines[1:]
    np.random.default_rng(seed).shuffle(body)
    shuffled = path.with_name("shuffled-" + path.name)
    shuffled.write_text(lines[0] + "".join(body))
    return shuffled


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario_dataset(ScenarioConfig(n_train=70, n_test=30, replication_seed=5))[0]


class TestWeightFiles:
    def test_dense_inverse_distance_bytes(self, tmp_path):
        W = build_inverse_distance_weights(1000)
        save_weights(W, tmp_path / "new.txt")
        reference_save_weights(W, tmp_path / "ref.txt")
        assert same_bytes(tmp_path / "new.txt", tmp_path / "ref.txt")
        assert same_bits(load_weights(tmp_path / "new.txt").weights, W.weights)

    def test_sparse_knn_bytes_and_shuffled_read(self, tmp_path):
        rng = np.random.default_rng(11)
        n = DENSE_LIMIT + 200
        coords = np.column_stack([rng.uniform(-30, 5, n), rng.uniform(-70, -35, n)])
        W = build_knn_bisquare_weights(coords, 4)
        assert W.is_sparse
        path = tmp_path / "new.txt"
        save_weights(W, path)
        reference_save_weights(W, tmp_path / "ref.txt")
        assert same_bytes(path, tmp_path / "ref.txt")
        for source in (path, shuffle_rows(path, 3)):
            back = load_weights(source).weights
            assert back.has_canonical_format
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(back, attr), getattr(W.weights, attr))

    def test_shuffled_dense_read_is_bit_equal(self, tmp_path):
        W = build_inverse_distance_weights(60).subset(np.arange(0, 60, 2))
        path = tmp_path / "w.txt"
        save_weights(W, path)
        assert same_bits(load_weights(shuffle_rows(path, 4)).weights, W.weights)

    def test_empty_body_is_a_zero_matrix(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("n 3 row_normalized 1\n")
        assert same_bits(load_weights(path).weights, np.zeros((3, 3)))

    def test_negative_size_is_a_malformed_header(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("n -2 row_normalized 1\n")
        with pytest.raises(DataError, match="malformed weight-matrix header"):
            load_weights(path)

    @pytest.mark.parametrize("n", [4, DENSE_LIMIT + 1])
    def test_duplicate_entries_rejected_on_both_routes(self, tmp_path, n):
        path = tmp_path / "w.txt"
        path.write_text(f"n {n} row_normalized 0\n0 1 0.25\n1 2 1\n0 1 0.5\n")
        with pytest.raises(DataError, match="duplicate entry i=0 j=1"):
            load_weights(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        path = tmp_path / "w.txt"
        path.write_text(f"n 2 row_normalized 0\n0 1 1\n1 0 {value}\n")
        with pytest.raises(DataError, match="finite"):
            load_weights(path)


class TestTables:
    def test_functional_bytes_and_shuffled_read(self, tmp_path, scenario):
        functional = [c.copy() for c in scenario.functional]
        functional[1][0, :len(SPECIALS)] = SPECIALS
        path = tmp_path / "f.csv"
        cli.write_functional_csv(path, functional, scenario.grid)
        reference_write_functional_csv(tmp_path / "ref.csv", functional, scenario.grid)
        assert same_bytes(path, tmp_path / "ref.csv")
        for source in (path, shuffle_rows(path, 5)):
            back, grid, _ = cli.read_functional_csv(source)
            assert same_bits(grid.points, scenario.grid.points)
            assert len(back) == len(functional)
            for got, want in zip(back, functional):
                assert same_bits(got, want)

    def test_scalars_bytes_and_shuffled_read(self, tmp_path, scenario):
        scalars = scenario.scalars.copy()
        scalars[:len(SPECIALS), 0] = SPECIALS
        path = tmp_path / "s.csv"
        cli.write_scalars_csv(path, scalars, scenario.response)
        reference_write_scalars_csv(tmp_path / "ref.csv", scalars, scenario.response)
        assert same_bytes(path, tmp_path / "ref.csv")
        for source in (path, shuffle_rows(path, 6)):
            got_scalars, got_response, _ = cli.read_scalars_csv(source)
            assert same_bits(got_scalars, scalars)
            assert same_bits(got_response, scenario.response)

    def test_scalars_without_covariates_round_trip(self, tmp_path):
        # the header used to come out as "location_id,,y", which no reader accepted
        response = np.array([1.5, -2.0, 0.25])
        path = tmp_path / "s.csv"
        cli.write_scalars_csv(path, np.empty((3, 0)), response)
        assert path.read_text().splitlines()[0] == "location_id,y"
        scalars, back, _ = cli.read_scalars_csv(path)
        assert scalars.shape == (3, 0) and same_bits(back, response)

    def test_scalars_duplicate_ids_keep_file_order(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("location_id,z1,y\n1,5,6\n0,1,2\n1,3,4\n")
        scalars, response, _ = cli.read_scalars_csv(path)
        assert scalars.ravel().tolist() == [1.0, 5.0, 3.0]
        assert response.tolist() == [2.0, 6.0, 4.0]

    def test_coords_shuffled_read(self, tmp_path):
        coords = np.random.default_rng(8).uniform(-60, 60, size=(40, 2))
        path = tmp_path / "c.csv"
        path.write_text(
            "location_id,lat,lon\n"
            + "".join(f"{i},{_fmt17(a)},{_fmt17(b)}\n" for i, (a, b) in enumerate(coords))
        )
        back, ids = cli.read_coords_csv(shuffle_rows(path, 9))
        assert same_bits(back, coords)
        assert ids.tolist() == list(range(40))

    def test_predictions_bytes(self, tmp_path):
        preds = np.concatenate([SPECIALS, np.random.default_rng(2).normal(size=200)])
        cli._write_location_csv(tmp_path / "p.csv", "location_id,predicted", preds)
        reference_write_predictions(tmp_path / "ref.csv", preds)
        assert same_bytes(tmp_path / "p.csv", tmp_path / "ref.csv")

    def test_metrics_bytes(self, tmp_path):
        metrics = {"r2": np.float64(0.25), "mse": 1.0 / 3.0, "a": 5e-324}
        cli.write_metrics_csv(tmp_path / "m.csv", metrics)
        expected = "metric,value\na,4.9406564584124654e-324\nmse,0.33333333333333331\nr2,0.25\n"
        assert (tmp_path / "m.csv").read_text() == expected

    def test_writer_chunks_hold_every_row(self, tmp_path):
        grid = Grid.uniform(3)
        curves = np.random.default_rng(1).normal(size=(30000, 3))
        path = tmp_path / "f.csv"
        cli.write_functional_csv(path, [curves], grid)
        reference_write_functional_csv(tmp_path / "ref.csv", [curves], grid)
        assert same_bytes(path, tmp_path / "ref.csv")


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda n: st.lists(st.floats(0.0, 1e300), min_size=n * n, max_size=n * n)
    ))
    def test_weight_file_round_trip(self, tmp_path_factory, values):
        n = int(round(len(values) ** 0.5))
        weights = np.array(values).reshape(n, n)
        np.fill_diagonal(weights, 0.0)
        W = SpatialWeightMatrix(weights, row_normalized=False)
        path = tmp_path_factory.mktemp("w") / "w.txt"
        save_weights(W, path)
        assert same_bits(load_weights(path).weights, W.weights)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 4),
        st.lists(finite, min_size=48, max_size=48),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=2, unique=True),
    )
    def test_functional_file_round_trip(self, tmp_path_factory, p, n, values, inner):
        grid = Grid(np.array([0.0, *sorted(inner), 1.0]))
        g = grid.num_points
        functional = [np.array(values[k * n * g:(k + 1) * n * g]).reshape(n, g) for k in range(p)]
        path = tmp_path_factory.mktemp("f") / "f.csv"
        cli.write_functional_csv(path, functional, grid)
        back, back_grid, _ = cli.read_functional_csv(path)
        assert same_bits(back_grid.points, grid.points)
        assert all(same_bits(a, b) for a, b in zip(back, functional)) and len(back) == p
