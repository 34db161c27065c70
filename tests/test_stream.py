"""Arrival streams, scorer, and initial-estimate fitting."""

import itertools
import math

import numpy as np
import pytest

from debiasim import runner
from debiasim.config import config_from_dict
from debiasim.dist import Family, beta, gaussian
from debiasim.errors import InsufficientDataError, MalformedRowError
from debiasim.policy import PopulationSpec
from debiasim.stream import (
    SyntheticStream,
    fit_initial_estimate,
    fit_scorer,
    load_replay,
    read_scored_csv,
)
from helpers import logistic_loss

BETA_194_332_MEDIAN = 0.3511189944333637  # mpmath oracle


def _population(fracs=None):
    fracs = fracs or {("a", 0): 0.25, ("a", 1): 0.25, ("b", 0): 0.25, ("b", 1): 0.25}
    dists = {k: gaussian(7 if k[1] == 0 else 10, 1) for k in fracs}
    return PopulationSpec(fractions=fracs, dists=dists)


def _cols(block):
    """A block's arrivals as (xs, ys, group names) lists."""
    return block.xs.tolist(), block.ys.tolist(), [block.groups[c] for c in block.gcodes.tolist()]


class TestSyntheticStream:
    def test_determinism(self):
        pop = _population()
        a = SyntheticStream(pop, np.random.default_rng(123)).draw(3 * 8192)
        b = SyntheticStream(pop, np.random.default_rng(123)).draw(3 * 8192)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.gcodes, b.gcodes)
        assert a.groups == b.groups == ("a", "b")

    def test_fixed_blocks(self):
        # draw(n) reads whole 8192-arrival chunks: ceil(n / 8192) of them.
        for n, chunks in ((1, 1), (8191, 1), (8192, 1), (8193, 2), (3 * 8192 + 17, 4)):
            drawn = SyntheticStream(_population(), np.random.default_rng(0))
            chunked = SyntheticStream(_population(), np.random.default_rng(0))
            assert len(drawn.draw(n).xs) == n
            assert [len(chunked._draw().xs) for _ in range(chunks)] == [8192] * chunks
            assert drawn.rng.bit_generator.state == chunked.rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193])
    def test_draw_is_a_prefix(self, n):
        # A run's arrivals do not depend on how many the run asks for.
        m = 3 * 8192 + 17
        long = SyntheticStream(_population(), np.random.default_rng(5)).draw(m)
        short = SyntheticStream(_population(), np.random.default_rng(5)).draw(n)
        for col_long, col_short in zip(long[:3], short[:3]):
            assert np.array_equal(col_long[:n], col_short)
        assert long.groups == short.groups

    def test_multinomial_concentration(self):
        pop = _population()
        stream = SyntheticStream(pop, np.random.default_rng(0))
        counts = {k: 0 for k in pop.fractions}
        n = 10**5
        _, ys, gs = _cols(stream.draw(n))
        for g, y in zip(gs, ys):
            counts[(g, y)] += 1
        sigma = math.sqrt(n * 0.25 * 0.75)
        for k, c in counts.items():
            assert abs(c - n * 0.25) < 3 * sigma

    def test_degenerate_fraction(self):
        pop = PopulationSpec(fractions={("a", 1): 1.0, ("a", 0): 0.0},
                             dists={("a", 1): gaussian(10, 1), ("a", 0): gaussian(7, 1)})
        stream = SyntheticStream(pop, np.random.default_rng(1))
        _, ys, gs = _cols(stream.draw(500))
        assert set(zip(gs, ys)) == {("a", 1)}

    def test_beta_population(self):
        pop = PopulationSpec(
            fractions={("a", 0): 0.5, ("a", 1): 0.5},
            dists={("a", 0): beta(2, 5), ("a", 1): beta(5, 2)})
        stream = SyntheticStream(pop, np.random.default_rng(2))
        xs, _, _ = _cols(stream.draw(2000))
        assert all(0.0 <= x <= 1.0 for x in xs)


def _replay_arrivals(path, shuffle_rng=None):
    """The block a run of a replay config over ``path`` decides."""
    config = config_from_dict({
        "engine": "active_debiasing",
        "source": {"kind": "csv_replay", "path": str(path), "shuffle": shuffle_rng is not None},
        "fractions": {g: {"0": 0.25, "1": 0.25} for g in "ab"},
        "initial_estimates": {g: {"0": {"family": "gaussian", "params": [6, 1]},
                                  "1": {"family": "gaussian", "params": [9, 1]}} for g in "ab"},
        "horizon": 1000,
    })
    return runner._arrivals(config, None, shuffle_rng, load_replay(path))


class TestCsvReplay:
    def _write(self, tmp_path, rows, header="x,y,g"):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_replays_exactly(self, tmp_path):
        path = self._write(tmp_path, ["1.5,1,a", "2.5,0,b", "3.5,1,a"])
        xs, ys, gs = _cols(load_replay(path))
        assert xs == [1.5, 2.5, 3.5]
        assert ys == [1, 0, 1]
        assert gs == ["a", "b", "a"]

    def test_shuffle_preserves_multiset(self, tmp_path):
        rows = [f"{i}.0,{i % 2},a" for i in range(50)]
        path = self._write(tmp_path, rows)
        plain, _, _ = _cols(_replay_arrivals(path))
        shuffled, _, _ = _cols(_replay_arrivals(path, np.random.default_rng(7)))
        assert plain == [float(i) for i in range(50)]
        assert sorted(plain) == sorted(shuffled)
        assert plain != shuffled

    def test_shuffle_permutes_rows(self, tmp_path):
        # Each seed's order is its shuffle generator's permutation of the rows.
        rows = [f"{i}.0,{i % 2},{'ab'[i % 3 == 0]}" for i in range(40)]
        path = self._write(tmp_path, rows)
        records = read_scored_csv(path)
        order = np.random.default_rng(11).permutation(len(records))
        xs, ys, gs = _cols(_replay_arrivals(path, np.random.default_rng(11)))
        assert list(zip(xs, ys, gs)) == [tuple(records[i]) for i in order]

    def test_empty_file_body(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,g\n")
        block = load_replay(path)
        assert len(block.xs) == 0 and block.groups == ()

    def test_malformed_row_names_index(self, tmp_path):
        path = self._write(tmp_path, ["1.0,1,a", "oops,0,b"])
        with pytest.raises(MalformedRowError, match="row 2"):
            read_scored_csv(path)

    def test_short_row_names_index(self, tmp_path):
        path = self._write(tmp_path, ["1.0,1,a", "2.0,0"])
        with pytest.raises(MalformedRowError, match="row 2: 2 fields, header has 3"):
            read_scored_csv(path)

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        path = self._write(tmp_path, ["1.0,1,a", "", "oops,0,b"])
        with pytest.raises(MalformedRowError, match="row 2"):
            read_scored_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = self._write(tmp_path, ["1.0,3,a"])
        with pytest.raises(MalformedRowError, match="row 1"):
            read_scored_csv(path)

    def test_missing_column(self, tmp_path):
        path = self._write(tmp_path, ["1.0,1"], header="x,y")
        with pytest.raises(MalformedRowError, match="header"):
            read_scored_csv(path)

    def test_column_mapping(self, tmp_path):
        path = self._write(tmp_path, ["0.7,1,north"], header="score,label,region")
        records = read_scored_csv(path, columns={"x": "score", "y": "label", "g": "region"})
        assert records[0].x == 0.7 and records[0].g == "north"


class TestFitScorer:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_separable_sign(self):
        rows = [{"f": x, "y": int(x > 0)} for x in np.linspace(-2, 2, 80)]
        model = fit_scorer(rows, "y", ["f"])
        assert model.weights[0] > 0

    def test_single_class_raises(self):
        rows = [{"f": float(i), "y": 1} for i in range(20)]
        with pytest.raises(InsufficientDataError):
            fit_scorer(rows, "y", ["f"])

    def test_scores_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        rows = [{"f": float(rng.normal()), "g": float(rng.normal()),
                 "y": int(rng.random() < 0.5)} for _ in range(200)]
        model = fit_scorer(rows, "y", ["f", "g"])
        for row in rows:
            assert 0.0 < model.score(row) < 1.0

    def test_xor_cannot_beat_chance(self):
        # Exhaustive small grid over weights confirms ln 2 is the floor.
        rows = [{"u": float(u), "v": float(v), "y": int(u != v)}
                for u, v in itertools.product((0, 1), repeat=2) for _ in range(25)]
        X = np.array([[r["u"], r["v"]] for r in rows], dtype=float)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = np.array([r["y"] for r in rows])
        grid = np.linspace(-4, 4, 17)
        best = min(
            logistic_loss(X, y, np.array([w1, w2]), b)
            for w1 in grid for w2 in grid for b in grid
        )
        assert best >= math.log(2) - 1e-9

        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = fit_scorer(rows, "y", ["u", "v"])
        w = np.array(model.weights)
        trained = logistic_loss(X, y, w, model.intercept)
        assert trained >= math.log(2) - 0.1

    def test_nonconvergence_warns_but_returns(self):
        # Separable data: weights diverge, gradient never reaches tolerance.
        rows = [{"f": x, "y": int(x > 0)} for x in np.linspace(-2, 2, 80)]
        with pytest.warns(RuntimeWarning, match="gradient norm"):
            model = fit_scorer(rows, "y", ["f"], iterations=50)
        assert model.trained_on == 80

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_categorical_one_hot(self):
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(300):
            color = rng.choice(["red", "blue", "green"])
            rows.append({"color": str(color), "y": int(color == "red")})
        model = fit_scorer(rows, "y", ["color"])
        assert any("color=" in name for name in model.feature_names)
        reds = model.score({"color": "red"})
        blues = model.score({"color": "blue"})
        assert reds > blues


class TestFitInitialEstimate:
    def test_beta_shape_recovery(self):
        rng = np.random.default_rng(4)
        scores = rng.beta(1.94, 3.32, size=10**4)
        est = fit_initial_estimate(scores, Family.BETA, (1.0, 3.32), ref_level=50.0)
        assert abs(est.params[0] - 1.94) < 0.1

    def test_gaussian_median_identity(self):
        scores = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        est = fit_initial_estimate(scores, Family.GAUSSIAN, (0.0, 1.0), ref_level=50.0)
        assert est.params[0] == pytest.approx(float(np.median(scores)), abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_initial_estimate([0.1, 0.2, 0.3, 0.4, 0.5], Family.BETA, (1.0, 3.0), 50.0)

    def test_median_matches_oracle(self):
        # Large-sample median of Beta(1.94, 3.32) approaches the mpmath value.
        rng = np.random.default_rng(9)
        scores = rng.beta(1.94, 3.32, size=2 * 10**5)
        assert abs(np.median(scores) - BETA_194_332_MEDIAN) < 0.005
