"""Byte and bit oracles for the text tables the package reads and writes.

The reference writers below are the one-line-at-a-time writers the package
used before its tables went through one chunked writer; every file must
stay byte-identical to theirs, except the generator's inverse-distance W,
which is now written as one header line.  Reading a file back, in any row order, must
give bit-identical arrays.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdnn import cli, spatial
from sfdnn.basis import Grid
from sfdnn.errors import DataError
from sfdnn.simgen import ScenarioConfig, generate_scenario_dataset
from sfdnn.spatial import (
    DENSE_LIMIT,
    SpatialFilterFactor,
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
        # a dense W that is not the generator's is still written as triples
        W = build_inverse_distance_weights(1000).subset(np.arange(0, 1000, 2))
        save_weights(W, tmp_path / "new.txt")
        reference_save_weights(W, tmp_path / "ref.txt")
        assert same_bytes(tmp_path / "new.txt", tmp_path / "ref.txt")
        assert same_bits(load_weights(tmp_path / "new.txt").weights, W.weights)
        # the generator's own W is one header line, read back as the shared object
        save_weights(build_inverse_distance_weights(1000), tmp_path / "id.txt")
        assert (tmp_path / "id.txt").read_bytes() == b"n 1000 row_normalized 1 inverse_distance\n"
        assert load_weights(tmp_path / "id.txt") is build_inverse_distance_weights(1000)

    def test_inverse_distance_triple_file_still_loads_bit_equal(self, tmp_path):
        W = build_inverse_distance_weights(300)
        reference_save_weights(W, tmp_path / "w.txt")
        back = load_weights(tmp_path / "w.txt")
        assert back.row_normalized
        assert same_bits(back.weights, W.weights)

    def test_triple_file_of_unmirrored_row_sums_keeps_its_bits_and_full_solve(self, tmp_path):
        # the generator once divided each row by its own sum, so a row and its
        # mirror could differ in the last bit; such a file is a plain dense W
        n = 300
        raw = 1.0 / (1.0 + np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]))
        np.fill_diagonal(raw, 0.0)
        raw /= raw.sum(axis=1, keepdims=True)
        assert not np.array_equal(raw, raw[::-1, ::-1])
        reference_save_weights(SpatialWeightMatrix(raw, row_normalized=True), tmp_path / "w.txt")
        back = load_weights(tmp_path / "w.txt")
        assert back is not build_inverse_distance_weights(n)
        assert same_bits(back.weights, raw)
        b = np.random.default_rng(7).normal(size=(n, 2))
        assert same_bits(SpatialFilterFactor(back, 0.6).solve(b), np.linalg.solve(np.eye(n) - 0.6 * raw, b))

    def test_copied_generator_matrix_is_written_as_the_header(self, tmp_path):
        W = SpatialWeightMatrix(build_inverse_distance_weights(40).weights.copy(), row_normalized=True)
        save_weights(W, tmp_path / "w.txt")
        assert (tmp_path / "w.txt").read_text() == "n 40 row_normalized 1 inverse_distance\n"

    def test_generator_is_recognized_without_rebuilding_it(self, tmp_path, monkeypatch):
        n = 600
        shared = build_inverse_distance_weights(n)
        copies = {size: build_inverse_distance_weights(size).weights.copy() for size in (2, 3, 301)}
        ulp_off = shared.weights.copy()
        ulp_off[590, 7] = np.nextafter(ulp_off[590, 7], np.inf)  # in the last row block

        def refuse(*_):
            raise AssertionError("the generator's whole weight matrix was rebuilt")

        monkeypatch.setattr(spatial, "_inverse_distance_array", refuse)
        cached = build_inverse_distance_weights.cache_info()
        # the shared W is compared by row blocks and named
        save_weights(shared, tmp_path / "shared.txt")
        assert (tmp_path / "shared.txt").read_text() == f"n {n} row_normalized 1 inverse_distance\n"
        save_weights(SpatialWeightMatrix(ulp_off, row_normalized=True), tmp_path / "off.txt")
        assert len((tmp_path / "off.txt").read_text().splitlines()) == 1 + n * (n - 1)
        # an exact copy is compared by row blocks, and still named
        for size, weights in copies.items():
            save_weights(SpatialWeightMatrix(weights, row_normalized=True), tmp_path / "copy.txt")
            assert (tmp_path / "copy.txt").read_text() == f"n {size} row_normalized 1 inverse_distance\n"
        # no cached W was built or evicted
        assert build_inverse_distance_weights.cache_info() == cached

    def test_negative_zero_keeps_the_triple_form(self, tmp_path):
        weights = build_inverse_distance_weights(5).weights.copy()
        weights[0, 0] = -0.0
        W = SpatialWeightMatrix(weights, row_normalized=True)
        save_weights(W, tmp_path / "w.txt")
        assert len((tmp_path / "w.txt").read_text().splitlines()) == 1 + 5 * 4

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n 4 row_normalized 1 inverse_distance\n0 1 1\n", "takes no 'i j w' lines"),
            ("n 4 row_normalized 1 inverse_distance\n\n  \n0\n", "takes no 'i j w' lines"),
            ("n 4 row_normalized 0 inverse_distance\n", "needs row_normalized 1 and n >= 2"),
            ("n 1 row_normalized 1 inverse_distance\n", "needs row_normalized 1 and n >= 2"),
            ("n 0 row_normalized 1 inverse_distance\n", "needs row_normalized 1 and n >= 2"),
            ("n 4 row_normalized 1 knn\n", "unknown weight-matrix form 'knn'"),
            ("n 4 row_normalized 1 inverse_distance extra\n", "malformed weight-matrix header"),
        ],
    )
    def test_strict_inverse_distance_header(self, tmp_path, text, message):
        path = tmp_path / "w.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_weights(path)

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

    def test_zero_weight_lines_are_not_stored(self, tmp_path, monkeypatch):
        # older KNN files wrote each row's h-th neighbour as an 'i j 0' line
        monkeypatch.setattr(spatial, "DENSE_LIMIT", 20)
        rng = np.random.default_rng(13)
        coords = np.column_stack([rng.uniform(-30, 5, 40), rng.uniform(-70, -35, 40)])
        W = build_knn_bisquare_weights(coords, 4)
        path = tmp_path / "w.txt"
        save_weights(W, path)
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(W.n):
                j = next(j for j in range(W.n) if j != i and W.weights[i, j] == 0.0)
                fh.write(f"{i} {j} {'-0' if i % 2 else '0'}\n")
        back = load_weights(shuffle_rows(path, 6))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back.weights, attr), getattr(W.weights, attr))
        assert np.all(back.weights.data != 0.0)
        rows = np.arange(0, W.n, 2)
        assert np.all(back.subset(rows).weights.data != 0.0)
        b = rng.normal(size=(W.n, 2))
        for rho in (-0.4, 0.7):
            assert same_bits(SpatialFilterFactor(back, rho).solve(b), SpatialFilterFactor(W, rho).solve(b))

    def test_storage_follows_what_the_file_holds(self, tmp_path, monkeypatch):
        # above DENSE_LIMIT, a file storing every off-diagonal weight stays
        # dense and keeps its spectrum; one leaving some weight unstored is CSR
        monkeypatch.setattr(spatial, "DENSE_LIMIT", 20)
        generator = build_inverse_distance_weights(40)
        path = tmp_path / "w.txt"
        reference_save_weights(generator, path)  # the triple form of older files
        back = load_weights(path)
        assert not back.is_sparse and same_bits(back.weights, generator.weights)
        assert same_bits(back.eigenvalues(), generator.eigenvalues())
        doubled = SpatialWeightMatrix(2.0 * spatial._inverse_distance_array(40), row_normalized=False)
        save_weights(doubled, path)
        back = load_weights(path)
        assert not back.is_sparse and same_bits(back.eigenvalues(), doubled.eigenvalues())
        assert back.admissible_interval() == doubled.admissible_interval()
        lines = path.read_text().splitlines(keepends=True)
        for entry in ([], ["0 1 0\n"]):
            path.write_text("".join(lines[:1] + entry + lines[2:]))
            back = load_weights(path)
            assert back.is_sparse and back.eigenvalues() is None
            r = float(back.row_sums().max())
            assert back.admissible_interval() == (-1.0 / r, 1.0 / r)

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

    @pytest.mark.parametrize("n", [3, DENSE_LIMIT + 1])
    def test_duplicate_entries_rejected_before_any_weight_matrix(self, tmp_path, monkeypatch, n):
        # every off-diagonal triple of a 3-site W, or two of a W above
        # DENSE_LIMIT sites, and then the first of them again
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j] if n == 3 else [(0, 1), (1, 2)]
        body = "".join(f"{i} {j} 0.25\n" for i, j in pairs)
        path = tmp_path / "w.txt"
        path.write_text(f"n {n} row_normalized 0\n{body}0 1 0.5\n")

        def refuse(*_args, **_kwargs):
            raise AssertionError("a weight matrix was built")

        monkeypatch.setattr(spatial, "SpatialWeightMatrix", refuse)
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


def functional_outcome(path):
    """What reading a functional file gives: its arrays' bits, or the DataError text."""
    try:
        functional, grid, ids = cli.read_functional_csv(path)
    except DataError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in [*functional, grid.points, ids]]


class TestFunctionalReadRoutes:
    """A file in the writer's order skips the sort; every file reads as the sorted route does."""

    @pytest.fixture
    def lexsort_calls(self, monkeypatch):
        calls = []
        lexsort = np.lexsort

        def counted(keys):
            calls.append(len(keys))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counted)
        return calls

    @pytest.fixture
    def written(self, tmp_path, scenario):
        path = tmp_path / "f.csv"
        cli.write_functional_csv(path, scenario.functional, scenario.grid)
        header, *rows = path.read_text().splitlines(keepends=True)
        return path, header, rows

    def routes(self, path, monkeypatch, lexsort_calls):
        """(outcome of the default read, whether it sorted), checked against the sorted route."""
        outcome = functional_outcome(path)
        sorted_ = bool(lexsort_calls)
        with monkeypatch.context() as m:
            m.setattr(cli, "_writer_ordered", lambda *columns: False)
            assert functional_outcome(path) == outcome
        return outcome, sorted_

    def test_writer_order_reads_without_a_sort(self, written, lexsort_calls):
        path = written[0]
        cli.read_functional_csv(path)
        assert lexsort_calls == []
        cli.read_functional_csv(shuffle_rows(path, 1))
        assert lexsort_calls == [4]

    def test_writer_ordered_file(self, monkeypatch, scenario, written, lexsort_calls):
        outcome, sorted_ = self.routes(written[0], monkeypatch, lexsort_calls)
        assert not sorted_
        assert outcome == [
            (a.dtype.str, a.shape, a.tobytes())
            for a in [*scenario.functional, scenario.grid.points, np.arange(scenario.n)]
        ]

    def test_reversed_predictor_blocks(self, tmp_path, monkeypatch, written, lexsort_calls):
        path, header, rows = written
        blocks = np.array_split(np.array(rows, dtype=object), 3)
        reversed_path = tmp_path / "reversed.csv"
        reversed_path.write_text(header + "".join(line for block in blocks[::-1] for line in block))
        outcome, sorted_ = self.routes(reversed_path, monkeypatch, lexsort_calls)
        assert sorted_ and outcome == functional_outcome(path)

    def test_non_contiguous_sorted_location_ids(self, tmp_path, monkeypatch, scenario, written, lexsort_calls):
        path, header, rows = written
        relabelled = tmp_path / "ids.csv"
        relabelled.write_text(header + "".join(
            f"{3 * int(loc) + 5},{rest}" for loc, rest in (line.split(",", 1) for line in rows)
        ))
        outcome, sorted_ = self.routes(relabelled, monkeypatch, lexsort_calls)
        assert not sorted_
        assert outcome[:-1] == functional_outcome(path)[:-1]
        assert outcome[-1][2] == (3 * np.arange(scenario.n) + 5).tobytes()

    def test_one_curve_off_the_grid(self, monkeypatch, scenario, written, lexsort_calls):
        path, header, rows = written
        g = scenario.grid.num_points
        k = (scenario.n + 4) * g + 2  # predictor 2, location 4, third grid point
        loc, pred, u, value = rows[k].split(",")
        rows[k] = f"{loc},{pred},{float(u) + 1e-9!r},{value}"
        path.write_text(header + "".join(rows))
        outcome, sorted_ = self.routes(path, monkeypatch, lexsort_calls)
        assert not sorted_
        assert outcome == f"{path}: location 4 of predictor 2 is not on the shared grid"

    def test_one_repeated_u_row(self, monkeypatch, scenario, written, lexsort_calls):
        path, header, rows = written
        k = 7 * scenario.grid.num_points + 5
        path.write_text(header + "".join(rows[: k + 1] + rows[k:]))
        outcome, sorted_ = self.routes(path, monkeypatch, lexsort_calls)
        assert sorted_
        assert outcome == f"{path}: location 7 of predictor 1 is not on the shared grid"


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
        for source in (path, shuffle_rows(path, p * 10 + n)):
            back, back_grid, _ = cli.read_functional_csv(source)
            assert same_bits(back_grid.points, grid.points)
            assert all(same_bits(a, b) for a, b in zip(back, functional)) and len(back) == p
