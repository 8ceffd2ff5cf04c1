"""Failure-injection and degenerate-input robustness tests."""

import os

import numpy as np
import pytest

from repro.core import LTE, LTEConfig, framework
from repro.core.meta_training import MetaHyperParams
from repro.data import Attribute, Table, make_car
from repro.nn import cores


@pytest.fixture
def prepare_as(monkeypatch):
    """``prepare_as(split)``: every preparation of two or more subspaces
    runs as two halves on two threads (``split``) or whole, as on a host
    of two cores."""
    monkeypatch.setattr(cores._STATE, "threads", 2)

    def force(split):
        monkeypatch.setattr(framework, "_PREPARE_SPLIT_WORK",
                            0 if split else float("inf"))
    return force


def tiny_config(**overrides):
    defaults = dict(budget=15, ku=20, kq=25, n_tasks=6,
                    meta=MetaHyperParams(epochs=1, local_steps=2,
                                         batch_size=3, pretrain_epochs=1),
                    basic_steps=10, online_steps=3)
    defaults.update(overrides)
    return LTEConfig(**defaults)


@pytest.fixture(scope="module")
def car_lte():
    """CAR has 5 attributes -> a 2D + 2D + 1D decomposition."""
    table = make_car(n_rows=2500, seed=81)
    lte = LTE(tiny_config())
    lte.fit_offline(table)
    return lte


class TestDegenerateLabels:
    @pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
    @pytest.mark.parametrize("fill", [0, 1])
    def test_constant_labels_do_not_crash(self, car_lte, variant, fill):
        subspace = list(car_lte.states)[0]
        session = car_lte.start_session(variant=variant,
                                        subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        session.submit_labels(subspace, np.full(len(tuples), fill))
        preds = session.predict_subspace(
            subspace, subspace.project(car_lte.table.data[:200]))
        assert preds.shape == (200,)
        assert set(np.unique(preds)) <= {0, 1}


class _SessionFront:
    """A lone ``ExplorationSession`` behind the manager's call shapes."""

    def __init__(self, lte, variant):
        self.session = lte.start_session(variant=variant, seed=3)

    def initial_tuples(self):
        return self.session.initial_tuples()

    def submit_labels(self, subspace, labels):
        self.session.submit_labels(subspace, labels)

    def add_labels(self, subspace, tuples, labels):
        self.session.add_labels(subspace, tuples, labels)

    def answers(self, rows):
        return self.session.predict(rows), []

    def subsessions(self):
        return self.session._subsessions


class _ManagerFront(_SessionFront):
    """The same calls through a ``SessionManager``'s queue and flush."""

    def __init__(self, lte, variant):
        from repro.serve import SessionManager
        self.manager = SessionManager(lte)
        self.sid = self.manager.open_session(variant=variant, seed=3)

    def initial_tuples(self):
        return self.manager.initial_tuples(self.sid)

    def submit_labels(self, subspace, labels):
        self.manager.submit_labels(self.sid, subspace, labels)

    def add_labels(self, subspace, tuples, labels):
        self.manager.add_labels(self.sid, subspace, tuples, labels)

    def answers(self, rows):
        errors = self.manager.poll(self.sid)["errors"]
        return self.manager.predict_many([self.sid], rows)[self.sid], errors

    def subsessions(self):
        return self.manager.session(self.sid)._subsessions


class TestDegenerateLabelSets:
    """One-class and duplicate-point label sets, over the whole 2-D + 2-D
    + 1-D conjunction: a balanced-class weight, a hull or a scaler that
    divides by a class count, a spread or a rank of zero would surface as
    a warning, a NaN logit or a recorded flush error — without scipy every
    hull used to *silently* become its bounding box, which is the pattern
    this pins against."""

    @pytest.mark.parametrize("front", [_SessionFront, _ManagerFront])
    @pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
    @pytest.mark.parametrize("kind", ["all_0", "all_1", "one_tuple_six_times"])
    def test_answers_are_finite_bits_without_error_or_warning(
            self, car_lte, kind, variant, front, hull_calls):
        import warnings
        rows = car_lte.table.data[:200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            served = front(car_lte, variant)
            for subspace, tuples in served.initial_tuples().items():
                if kind == "one_tuple_six_times":
                    labels = (tuples[:, 0] > np.median(tuples[:, 0]))
                    extra, extra_labels = tuples[[4] * 6], [0, 1] * 3
                else:
                    fill = int(kind == "all_1")
                    labels = np.full(len(tuples), fill)
                    extra, extra_labels = tuples[:6], [fill] * 6
                served.submit_labels(subspace, labels.astype(int))
                served.add_labels(subspace, extra, extra_labels)
            answers, errors = served.answers(rows)
        assert errors == []
        assert answers.shape == (200,) and answers.dtype == np.int64
        assert set(np.unique(answers)) <= {0, 1}
        for subsession in served.subsessions().values():
            assert subsession.adapted is not None
            assert len(subsession.extra_y) == 6
        if kind == "all_0":
            # No positive anchor: no subregion, hence not one hull —
            # and every row of the conjunction is the classifiers'.
            assert hull_calls["hulls"] == 0
            assert all(ss.optimizer is None
                       or (ss.optimizer.outer_region is None
                           and ss.optimizer.inner_region is None)
                       for ss in served.subsessions().values())
        if kind == "all_1" and variant == "meta_star":
            assert answers.any()     # inside every inner subregion


class TestHostileLabels:
    """Anything but 0/1 used to be coerced by ``astype(int64)``: NaN
    became -2**63, 0.7 became 0, and 2 / -1 were trained on as BCE
    targets."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2, -1, 0.7])
    def test_initial_labels_rejected_before_any_state_change(self, car_lte,
                                                             bad):
        subspace = list(car_lte.states)[0]
        session = car_lte.start_session(variant="meta",
                                        subspaces=[subspace])
        labels = np.zeros(len(session.initial_tuples()[subspace]))
        labels[0], labels[3] = 1, bad
        with pytest.raises(ValueError, match="position 3"):
            session.submit_labels(subspace, labels)
        subsession = session._subsessions[subspace]
        assert subsession.labels is None and subsession.adapted is None
        labels[3] = 0
        session.submit_labels(subspace, labels)    # still usable

    def test_extra_round_rejects_bad_labels_and_non_finite_tuples(
            self, car_lte):
        subspace = list(car_lte.states)[0]
        state = car_lte.states[subspace]
        session = car_lte.start_session(variant="meta",
                                        subspaces=[subspace])
        labels = np.zeros(len(session.initial_tuples()[subspace]), int)
        labels[0] = 1
        session.submit_labels(subspace, labels)
        subsession = session._subsessions[subspace]
        version = subsession.model_version
        extra = state.to_raw(state.data[5:8])
        with pytest.raises(ValueError, match="position 1"):
            session.add_labels(subspace, extra, [1, np.nan, 0])
        poisoned = extra.copy()
        poisoned[2, 0] = np.nan
        with pytest.raises(ValueError, match="tuple 2 .* column 0"):
            session.add_labels(subspace, poisoned, [1, 0, 0])
        assert subsession.extra_x is None
        assert subsession.model_version == version
        session.add_labels(subspace, extra, [1, 0, 0])
        assert len(subsession.extra_y) == 3


class TestHostileRows:
    """A ``(n, d+1)`` array used to be predicted on silently (subspaces
    select columns by position, so a leading id column shifted every
    attribute) and a too-narrow one answered with numpy's bare
    ``IndexError``."""

    def test_rows_of_the_wrong_width_fail_typed(self, car_lte):
        subspace = list(car_lte.states)[-1]
        session = car_lte.start_session(variant="meta_star",
                                        subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        session.submit_labels(
            subspace, (tuples[:, 0] > np.median(tuples[:, 0])).astype(int))
        rows = car_lte.table.data[:20]
        with_id = np.column_stack([np.arange(20.0), rows])
        with pytest.raises(ValueError, match="rows have 6 columns, the "
                                             "fitted table has 5"):
            session.predict(with_id)
        with pytest.raises(ValueError, match="rows have 4 columns"):
            session.predict(rows[:, :4])
        with pytest.raises(ValueError, match="rows have 6 columns"):
            session.retrieve(with_id)
        with pytest.raises(ValueError, match="the fitted table has 5"):
            session.predict(np.stack([rows, rows]))
        assert session.predict(rows[0]).shape == (1,)     # one 1-D row
        assert session.predict(rows[:0]).shape == (0,)
        assert np.array_equal(session.predict(rows)[:1],
                              session.predict(rows[0]))

    def test_subspace_points_of_the_wrong_width_fail_typed(self, car_lte):
        """``MinMaxScaler.transform`` broadcasts: a ``(n, 1)`` array
        against a 2-D subspace used to become two equal columns and an
        *answer*; a ``(n, 3)`` one ended in numpy's bare "operands could
        not be broadcast"."""
        subspace = next(s for s in car_lte.states if s.dim == 2)
        session = car_lte.start_session(variant="meta_star",
                                        subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        session.submit_labels(
            subspace, (tuples[:, 0] > np.median(tuples[:, 0])).astype(int))
        points = subspace.project(car_lte.table.data[:50])
        names = ", ".join(subspace.names)
        narrow = r"points have 1 columns, subspace \({}\) has 2".format(names)
        wide = r"points have 3 columns, subspace \({}\) has 2".format(names)
        with pytest.raises(ValueError, match=narrow):
            session.predict_subspace(subspace, points[:, :1])
        with pytest.raises(ValueError, match=wide):
            session.predict_subspace(subspace,
                                     np.column_stack([points, points[:, 0]]))
        with pytest.raises(ValueError, match=narrow):
            session.most_uncertain(subspace, points[:, :1], k=3)
        with pytest.raises(ValueError, match=wide):
            session.most_uncertain(subspace, np.ones((4, 3)))
        with pytest.raises(ValueError, match="subspace .* has 2"):
            session.predict_subspace(subspace, np.stack([points, points]))
        answers = session.predict_subspace(subspace, points)
        assert answers.shape == (50,)
        # One 1-D point of the right length is a batch of one.
        assert np.array_equal(session.predict_subspace(subspace, points[0]),
                              answers[:1])
        assert session.predict_subspace(subspace, points[:0]).shape == (0,)
        assert len(session.most_uncertain(subspace, points, k=3)) == 3


class TestOneDimensionalSubspace:
    def test_decomposition_includes_1d(self, car_lte):
        dims = sorted(s.dim for s in car_lte.states)
        assert dims == [1, 2, 2]

    def test_full_session_over_all_subspaces(self, car_lte):
        # Exercises 1-D hulls, 1-D UIS generation, 1-D preprocessing.
        session = car_lte.start_session(variant="meta_star")
        for subspace, tuples in session.initial_tuples().items():
            labels = (tuples[:, 0] > np.median(tuples[:, 0])).astype(int)
            session.submit_labels(subspace, labels)
        preds = session.predict(car_lte.table.data[:300])
        assert preds.shape == (300,)


class TestDegenerateTables:
    def test_constant_attribute_survives_offline(self):
        rng = np.random.default_rng(0)
        data = np.column_stack([np.full(800, 7.0),
                                rng.normal(size=800)])
        table = Table("const", [Attribute("flat"), Attribute("noise")], data)
        lte = LTE(tiny_config())
        lte.fit_offline(table)
        assert len(lte.states) == 1

    def test_small_table(self):
        rng = np.random.default_rng(1)
        table = Table("small", ["a", "b"], rng.normal(size=(300, 2)))
        lte = LTE(tiny_config())
        lte.fit_offline(table)
        subspace = list(lte.states)[0]
        session = lte.start_session(variant="meta", subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        session.submit_labels(subspace,
                              (tuples[:, 0] > 0).astype(int))
        assert session.predict(table.data[:50]).shape == (50,)


class TestOutOfRangeQueries:
    def test_predict_far_outside_training_range(self, car_lte):
        subspace = list(car_lte.states)[0]
        session = car_lte.start_session(variant="meta",
                                        subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        session.submit_labels(subspace,
                              (tuples[:, 0] > np.median(tuples[:, 0]))
                              .astype(int))
        wild = np.array([[1e9, -1e9], [0.0, 0.0]])
        preds = session.predict_subspace(subspace, wild)
        assert preds.shape == (2,)
        assert np.isfinite(preds).all()


class TestNonFiniteInputs:
    def test_nan_rows_rejected_or_handled(self, car_lte):
        subspace = list(car_lte.states)[0]
        session = car_lte.start_session(variant="meta",
                                        subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        session.submit_labels(subspace,
                              (tuples[:, 0] > np.median(tuples[:, 0]))
                              .astype(int))
        bad = np.full((2, 2), np.nan)
        # NaNs must not silently become "interesting": predictions stay
        # binary (NaN comparisons are False throughout the pipeline).
        preds = session.predict_subspace(subspace, bad)
        assert set(np.unique(preds)) <= {0, 1}

    @pytest.mark.parametrize("backend", ["memory", "store"])
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_fails_naming_the_attribute(self, poison,
                                                         backend,
                                                         monkeypatch):
        """An in-memory table with a NaN/inf cell used to run the scaler,
        GMM and Jenks fits on it and was stopped only inside k-means++,
        by ``rng.choice`` refusing NaN probabilities.  It now fails like
        a store does (off its zone maps): before any fit, naming the
        attribute."""
        from repro.core.preprocessing import TabularPreprocessor
        from repro.ml.scaler import MinMaxScaler
        from repro.store import ChunkStore
        table = make_car(n_rows=600, seed=3)
        subspaces = LTE(tiny_config()).fit_offline(table, train=False).states
        victim = list(subspaces)[1]
        table.data[17, victim.columns[1]] = poison
        if backend == "store":
            table = ChunkStore.from_table(table, chunk_rows=128)

        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted on non-finite data")
        monkeypatch.setattr(MinMaxScaler, "fit", no_fit)
        monkeypatch.setattr(MinMaxScaler, "from_bounds", no_fit)
        monkeypatch.setattr(TabularPreprocessor, "fit", no_fit)
        with pytest.raises(ValueError, match=victim.names[1]) as excinfo:
            LTE(tiny_config()).fit_offline(table, subspaces=[victim],
                                           train=False)
        assert victim.names[0] not in str(excinfo.value).split("attribute")[1]

    @pytest.mark.parametrize("poisoned", [(2,), (3,), (1, 3), (0, 2)])
    @pytest.mark.parametrize("backend", ["memory", "store"])
    def test_a_failed_fit_installs_nothing(self, prepare_as, backend,
                                           poisoned):
        """Four subspaces, prepared as halves [0, 1] | [2, 3] or whole:
        the error is the serial loop's — the lowest poisoned index, from
        whichever half raised it — and the LTE keeps its earlier table
        and every earlier state."""
        from repro.data import make_sdss
        clean = make_sdss(800, seed=3)
        lte = LTE(tiny_config()).fit_offline(clean, train=False)
        subspaces = list(lte.states)
        before = dict(lte.states)
        table = make_sdss(800, seed=4)
        for index in poisoned:
            table.data[7, subspaces[index].columns[1]] = np.nan
        if backend == "store":
            table = table.to_store(chunk_rows=128)
        prepare_as(False)
        with pytest.raises(ValueError) as serial:
            LTE(tiny_config()).fit_offline(table, subspaces=subspaces,
                                           train=False)
        assert subspaces[min(poisoned)].names[1] in str(serial.value)
        prepare_as(True)
        with pytest.raises(ValueError) as excinfo:
            lte.fit_offline(table, subspaces=subspaces, train=False)
        assert str(excinfo.value) == str(serial.value)
        assert lte.table is clean
        assert all(lte.states[s] is before[s] for s in subspaces)
        fresh = LTE(tiny_config())
        with pytest.raises(ValueError):
            fresh.fit_offline(table, subspaces=subspaces, train=False)
        assert fresh.table is None and fresh.states == {}

    def test_a_corrupted_chunk_fails_typed_and_installs_nothing(
            self, tmp_path, prepare_as):
        """A bit-flipped chunk file raises ``StoreCorruptedError`` out of
        the halves — both read it; the one whose read lands first raises,
        and the join re-raises with the type and the serial message."""
        from repro.data import make_sdss
        from repro.store import ChunkStore, StoreCorruptedError
        directory = str(tmp_path / "s")
        make_sdss(1024, seed=6).to_store(chunk_rows=128, directory=directory)
        path = os.path.join(directory, sorted(
            f for f in os.listdir(directory) if f.startswith("chunk"))[3])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 9)
            byte = fh.read(1)
            fh.seek(size - 9)
            fh.write(bytes([byte[0] ^ 0xFF]))
        errors = []
        for split in (False, True):
            prepare_as(split)
            lte = LTE(tiny_config())
            with pytest.raises(StoreCorruptedError) as excinfo:
                lte.fit_offline(ChunkStore.open(directory), train=False)
            errors.append(str(excinfo.value))
            assert lte.table is None and lte.states == {}
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_refresh_on_non_finite_table_keeps_the_old_state(self, poison):
        table = make_car(n_rows=600, seed=3)
        lte = LTE(tiny_config()).fit_offline(table, train=False)
        victim = list(lte.states)[2]          # the 1-D trailing subspace
        before = lte.states[victim]
        table.data[5, victim.columns[0]] = poison
        with pytest.raises(ValueError, match="non-finite"):
            lte.refresh_subspace(table, victim, train=False)
        assert lte.states[victim] is before
