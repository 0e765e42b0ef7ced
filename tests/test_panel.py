import copy
import csv
import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
import twfekit.panel
from helpers import make_panel, random_panel, write_panel_csv
from twfekit import (
    BalancedPanel,
    DgpConfig,
    GapRange,
    PanelError,
    PanelSchema,
    PretrendConfig,
    count_pairs,
    fd,
    load_panel,
    pretrend_covariate,
    scenario_preset,
    simulate,
    simulate_replication,
    twfe,
)

SCHEMA = PanelSchema(unit="unit", time="year")


class TestBalancedPanel:
    def test_basic_construction(self, rng):
        panel = random_panel(rng, 4, 3)
        assert panel.n_units == 4
        assert panel.n_periods == 3
        assert panel.periods == (1, 2, 3)
        assert panel.cluster_id == panel.units

    def test_too_few_units(self):
        with pytest.raises(PanelError, match="at least 2 units"):
            make_panel({"y": np.zeros((1, 3)), "x": np.zeros((1, 3))})

    def test_too_few_periods(self):
        with pytest.raises(PanelError, match="at least 2 periods"):
            make_panel({"y": np.zeros((3, 1)), "x": np.zeros((3, 1))})

    def test_nonconsecutive_periods(self):
        with pytest.raises(PanelError, match="consecutive"):
            BalancedPanel(
                units=("a", "b"),
                periods=(1990, 1992),
                series={"y": np.zeros((2, 2))},
            )

    def test_duplicate_units(self):
        with pytest.raises(PanelError, match="duplicate unit"):
            BalancedPanel(
                units=("a", "a"),
                periods=(1, 2),
                series={"y": np.zeros((2, 2))},
            )

    def test_series_are_copies(self):
        y = np.zeros((3, 2))
        view = y[:]
        panel = make_panel({"y": y})
        view += 1.0  # a view of the caller's array misses the checked values
        np.testing.assert_array_equal(panel.values("y"), np.zeros((3, 2)))
        y += 1.0  # and the caller's array stays writable
        assert not panel.values("y").flags.writeable

    def test_shape_mismatch(self):
        with pytest.raises(PanelError, match="shape"):
            BalancedPanel(
                units=("a", "b"),
                periods=(1, 2),
                series={"y": np.zeros((2, 3))},
            )

    def test_nonfinite_names_cell(self):
        values = np.zeros((2, 2))
        values[1, 0] = np.nan
        with pytest.raises(PanelError, match="unit 'b' in period 1"):
            BalancedPanel(
                units=("a", "b"), periods=(1, 2), series={"y": values}
            )

    def test_series_are_read_only(self, rng):
        panel = random_panel(rng, 3, 3)
        with pytest.raises(ValueError):
            panel.values("y")[0, 0] = 1.0
        # nor can a series be replaced under the fits the panel keeps
        panel = random_panel(rng, 20, 5)
        before = twfe(panel, "y", "x").beta
        with pytest.raises(TypeError):
            panel.series["x"] = panel.series["y"].copy()
        with pytest.raises(TypeError):
            del panel.series["x"]
        assert twfe(panel, "y", "x").beta == before

    def test_copies_are_rebuilt_with_an_empty_memo(self, rng):
        panel = random_panel(rng, 20, 5, extra_series=("w",))
        want = twfe(panel, "y", "x", ["w"], se=True)
        assert panel._memo
        for other in (pickle.loads(pickle.dumps(panel)), copy.deepcopy(panel)):
            assert other._memo == {}
            assert (other.units, other.periods, other.cluster_id) == (
                panel.units, panel.periods, panel.cluster_id
            )
            assert list(other.series) == list(panel.series)
            for name in panel.series:
                assert not other.values(name).flags.writeable
                assert other.values(name).tobytes() == panel.values(name).tobytes()
            with pytest.raises(TypeError):
                other.series["x"] = other.series["y"]
            assert twfe(other, "y", "x", ["w"], se=True) == want
        clusters = tuple(f"c{i % 4}" for i in range(20))
        regrouped = dataclasses.replace(panel, cluster_id=clusters)
        assert regrouped.cluster_id == clusters and regrouped._memo == {}
        assert twfe(regrouped, "y", "x", ["w"]).beta == want.beta

    def test_unknown_series(self, rng):
        panel = random_panel(rng, 3, 3)
        with pytest.raises(PanelError, match="unknown series 'z'"):
            panel.values("z")

    def test_period_index(self, rng):
        panel = make_panel({"y": rng.normal(size=(2, 4))}, first_period=1990)
        assert panel.period_index(1990) == 0
        assert panel.period_index(1993) == 3
        with pytest.raises(PanelError, match="outside panel range"):
            panel.period_index(1989)

    def test_cluster_length_checked(self):
        with pytest.raises(PanelError, match="cluster_id"):
            BalancedPanel(
                units=("a", "b"),
                periods=(1, 2),
                series={"y": np.zeros((2, 2))},
                cluster_id=("g1",),
            )


class TestTransforms:
    def test_demean_removes_period_means(self, rng):
        panel = random_panel(rng, 9, 7)
        tilde = oracles.demean(panel, "x")
        scale = np.abs(panel.values("x")).max()
        assert np.abs(tilde.sum(axis=0)).max() < 1e-12 * max(scale, 1.0) * 9

    def test_demean_is_idempotent(self, rng):
        panel = random_panel(rng, 6, 5)
        once = oracles.demean(panel, "x")
        again = once - once.mean(axis=0)
        assert np.allclose(once, again, rtol=0, atol=1e-14)

    def test_demean_matches_direct_subtraction(self, rng):
        panel = random_panel(rng, 5, 4)
        v = panel.values("y")
        expected = v - v.mean(axis=0)
        assert np.allclose(oracles.demean(panel, "y"), expected, atol=1e-12)


class TestLoadPanel:
    def test_round_trip(self, rng, tmp_path):
        panel = random_panel(rng, 6, 5)
        path = write_panel_csv(tmp_path / "panel.csv", panel)
        loaded = load_panel(path, SCHEMA)
        assert loaded.units == panel.units
        assert loaded.periods == panel.periods
        for name in ("y", "x"):
            assert np.array_equal(loaded.values(name), panel.values(name))

    def test_row_shuffle_invariance(self, rng, tmp_path):
        panel = random_panel(rng, 5, 4)
        rows = panel.n_units * panel.n_periods
        path_a = write_panel_csv(tmp_path / "a.csv", panel)
        order = rng.permutation(rows)
        path_b = write_panel_csv(tmp_path / "b.csv", panel, order=order)
        a = load_panel(path_a, SCHEMA)
        b = load_panel(path_b, SCHEMA)
        assert a.units == b.units and a.periods == b.periods
        for name in ("y", "x"):
            assert np.array_equal(a.values(name), b.values(name))

    def test_state_year_dimensions(self, rng, tmp_path):
        panel = random_panel(rng, 51, 29)
        path = write_panel_csv(tmp_path / "states.csv", panel)
        loaded = load_panel(path, SCHEMA)
        assert loaded.n_units == 51
        assert loaded.n_periods == 29

    def test_duplicate_cell_reports_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "unit,year,y\n" "a,1,1.0\n" "a,1,2.0\n" "b,1,3.0\n" "b,2,4.0\n"
        )
        with pytest.raises(PanelError, match="line 3.*duplicate.*'a'.*period 1"):
            load_panel(path, SCHEMA)

    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    @pytest.mark.parametrize("first", ["unit", '"unit"'])
    def test_byte_order_mark_is_not_header_text(self, tmp_path, first):
        text = f"{first},year,y\nb,1,1.5\na,2,2.5\na,1,3.5\nb,2,4.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        want, got = load_panel(plain, SCHEMA), load_panel(marked, SCHEMA)
        assert got.units == want.units and got.periods == want.periods
        assert got.values("y").tobytes() == want.values("y").tobytes()

    # a quoted header cell may span lines, which only a skipped mark keeps
    @pytest.mark.parametrize("first, line", [("unit", 3), ('"unit\n"', 4)])
    def test_byte_order_mark_keeps_line_numbers(self, tmp_path, first, line):
        path = tmp_path / "dup.csv"
        path.write_text(
            f"\ufeff{first},year,y\na,1,1.0\na,1,2.0\nb,1,3.0\nb,2,4.0\n",
            encoding="utf-8",
        )
        with pytest.raises(
            PanelError, match=f"line {line}: duplicate.*'a'.*period 1"
        ):
            load_panel(path, SCHEMA)

    def test_missing_cell_names_unit_and_period(self, tmp_path):
        path = tmp_path / "hole.csv"
        path.write_text(
            "unit,year,y\n"
            "a,1,1.0\na,2,2.0\na,3,3.0\n"
            "b,1,4.0\nb,3,6.0\n"
            "c,1,7.0\nc,2,8.0\nc,3,9.0\n"
        )
        with pytest.raises(
            PanelError, match="unit 'b' has no observation in period 2"
        ):
            load_panel(path, SCHEMA)

    def test_drop_units_warns_with_count(self, tmp_path):
        path = tmp_path / "hole.csv"
        path.write_text(
            "unit,year,y\n"
            "a,1,1.0\na,2,2.0\n"
            "b,1,4.0\n"
            "c,1,7.0\nc,2,8.0\n"
        )
        with pytest.warns(UserWarning, match="dropped 1 of 3 units"):
            panel = load_panel(path, SCHEMA, balance="drop-units")
        assert panel.units == ("a", "c")

    def test_drop_units_leaving_too_few(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("unit,year,y\na,1,1.0\na,2,2.0\nb,1,4.0\n")
        with pytest.raises(PanelError, match="complete units remain"):
            with pytest.warns(UserWarning):
                load_panel(path, SCHEMA, balance="drop-units")

    def test_missing_year_everywhere(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "unit,year,y\n"
            "a,1990,1.0\na,1992,2.0\n"
            "b,1990,3.0\nb,1992,4.0\n"
        )
        with pytest.raises(PanelError, match="no observations in period 1991"):
            load_panel(path, SCHEMA)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit,year,y\na,1,1.0\na,2,oops\nb,1,2.0\nb,2,3.0\n"
        )
        with pytest.raises(PanelError, match="line 3.*'oops'.*column 'y'"):
            load_panel(path, SCHEMA)

    def test_non_integer_year(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,year,y\na,1.5,1.0\n")
        with pytest.raises(PanelError, match="time label '1.5'"):
            load_panel(path, SCHEMA)

    def test_float_integer_year_accepted(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(
            "unit,year,y\na,1990.0,1.0\na,1991.0,2.0\n"
            "b,1990.0,3.0\nb,1991.0,4.0\n"
        )
        panel = load_panel(path, SCHEMA)
        assert panel.periods == (1990, 1991)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("id,year,y\na,1,1.0\n")
        with pytest.raises(PanelError, match="column 'unit' not found"):
            load_panel(path, SCHEMA)

    def test_series_selection(self, rng, tmp_path):
        panel = random_panel(rng, 3, 3, extra_series=("w",))
        path = write_panel_csv(tmp_path / "p.csv", panel)
        schema = PanelSchema(unit="unit", time="year", series=("y",))
        loaded = load_panel(path, schema)
        assert set(loaded.series) == {"y"}

    def test_cluster_column(self, tmp_path):
        path = tmp_path / "cl.csv"
        path.write_text(
            "unit,year,region,y\n"
            "a,1,south,1.0\na,2,south,2.0\n"
            "b,1,north,3.0\nb,2,north,4.0\n"
        )
        schema = PanelSchema(unit="unit", time="year", cluster="region")
        panel = load_panel(path, schema)
        assert panel.cluster_id == ("south", "north")
        assert set(panel.series) == {"y"}

    def test_inconsistent_cluster_rejected(self, tmp_path):
        path = tmp_path / "cl.csv"
        path.write_text(
            "unit,year,region,y\n"
            "a,1,south,1.0\na,2,north,2.0\n"
            "b,1,north,3.0\nb,2,north,4.0\n"
        )
        schema = PanelSchema(unit="unit", time="year", cluster="region")
        with pytest.raises(PanelError, match="line 3.*unit 'a'"):
            load_panel(path, schema)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("unit,year,y\na,1,1.0\na,2\n")
        with pytest.raises(PanelError, match="line 3: expected 3 fields"):
            load_panel(path, SCHEMA)

    # csv's field size limit is 131072 characters
    @pytest.mark.parametrize(
        "long, oops, text",
        [
            (1, 0, "line 1: field larger than field limit"),
            (4, 0, "line 4: field larger than field limit"),
            # an earlier bad row is named first
            (4, 2, "line 2: non-numeric value 'oops'"),
        ],
    )
    def test_overlong_field_names_its_line(self, tmp_path, long, oops, text):
        lines = ["unit,year,y", "a,1,1.0", "a,2,2.0", "b,1,3.0", "b,2,4.0"]
        if oops:
            lines[oops - 1] = "a,1,oops"
        lines[long - 1] = "x" * 200_000 + lines[long - 1]
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PanelError, match=f"^{text}"):
            load_panel(path, SCHEMA)

    # Latin-1 bytes in a file read as UTF-8: 0xfc is the "\u00fc" of Zurich
    @pytest.mark.parametrize(
        "text, line",
        [
            ("unit,year,y\r\na,1,1\r\nZ\u00fcrich,1,2\r\n", 3),
            ("unit,year,y\ra,1,1\rb,1,2\r\"Z\u00fc\nrich\",1,2\n", 4),
            ("Z\u00fcrich,year,y\na,1,1\n", 1),
        ],
        ids=["crlf", "cr", "header"],
    )
    def test_undecodable_byte_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(
            PanelError,
            match=rf"^{re.escape(str(path))}: line {line}: not valid \S+ text "
            rf"\(byte 0xfc\)$",
        ):
            load_panel(path, SCHEMA)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(PanelError, match="empty"):
            load_panel(path, SCHEMA)

    def test_bad_balance_value(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,year,y\na,1,1.0\nb,1,2.0\n")
        with pytest.raises(ValueError, match="balance must be"):
            load_panel(path, SCHEMA, balance="impute")


def _load_both(path, schema=SCHEMA, **kwargs):
    """``load_panel`` and ``oracles.load_panel_loop`` on one file, each with
    the warning messages it raised; both must succeed."""
    loaded = []
    for load in (load_panel, oracles.load_panel_loop):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            panel = load(path, schema, **kwargs)
        loaded.append((panel, [str(w.message) for w in caught]))
    return loaded


def _assert_same_load(path, schema=SCHEMA, **kwargs):
    (got, got_warnings), (want, want_warnings) = _load_both(path, schema, **kwargs)
    assert got.units == want.units
    assert got.periods == want.periods
    assert got.cluster_id == want.cluster_id
    assert list(got.series) == list(want.series)
    for name in want.series:
        assert got.values(name).tobytes() == want.values(name).tobytes()
    assert got_warnings == want_warnings
    return got, got_warnings


def _assert_same_error(path, schema=SCHEMA, **kwargs):
    with pytest.raises(PanelError) as want:
        oracles.load_panel_loop(path, schema, **kwargs)
    with pytest.raises(PanelError) as got:
        load_panel(path, schema, **kwargs)
    assert str(got.value) == str(want.value)
    return str(got.value)


def _long_rows(n_units, n_periods, rng):
    """Data lines of a long file, one per (unit, period), in unit order."""
    values = rng.normal(size=(n_units, n_periods, 2)).tolist()
    return [
        f"u{i:04d},{2000 + j},{values[i][j][0]!r},{values[i][j][1]!r}"
        for i in range(n_units)
        for j in range(n_periods)
    ]


# a long file, for rows far from its start
ROWS = 8192
LONG = (ROWS // 20 + 7, 20)


class TestLoadPanelMatchesLoop:
    """The loader against the former row-by-row loader."""

    def test_shuffled_rows(self, rng, tmp_path):
        panel = random_panel(rng, 7, 5, extra_series=("w",))
        order = rng.permutation(35)
        path = write_panel_csv(tmp_path / "p.csv", panel, order=order)
        got, _ = _assert_same_load(path)
        assert got.units == panel.units

    def test_semicolon_delimiter(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit;year;y;x\n"
            "b;1;1.5;2\na;2;-3e-5;4\na;1;0.25;1e3\nb;2;7;8.125\n"
        )
        got, _ = _assert_same_load(path, delimiter=";")
        assert got.units == ("a", "b")

    def test_whitespace_padded_cells(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            " unit , year , y \n"
            " a , 1 ,  1.5\n\ta\t,\t2\t, 2.5 \n"
            "b,  1, 3.5 \nb , 2 ,4.5\n"
            # str.strip whitespace that int() does not skip
            "c,\x1c1\x1f,5.5\nc,2,6.5\n"
        )
        got, _ = _assert_same_load(path)
        assert got.units == ("a", "b", "c") and got.periods == (1, 2)

    def test_float_time_labels(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,year,y\n"
            "a,1990.0,1\na,1991,2\nb,1.99e3,3\nb,1991.0,4\n"
        )
        got, _ = _assert_same_load(path)
        assert got.periods == (1990, 1991)

    def test_quoted_unit_labels(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,year,y\n"
            '"Dallas, TX",1,1\n"Dallas, TX",2,2\n'
            '"the ""big"" one",1,3\n"the ""big"" one",2,4\n'
            '"two\nlines",1,5\n"two\nlines",2,6\n'
        )
        got, _ = _assert_same_load(path)
        assert got.units == ("Dallas, TX", 'the "big" one', "two\nlines")

    def test_drop_units_warning(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,year,y\n"
            "c,1,1\nc,2,2\nc,3,3\n"
            "a,1,4\na,3,5\n"
            "b,1,6\nb,2,7\nb,3,8\n"
            "d,2,9\n"
        )
        got, messages = _assert_same_load(path, balance="drop-units")
        assert got.units == ("b", "c")
        assert messages == ["dropped 2 of 4 units with incomplete records"]

    def test_cluster_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "region,unit,year,y\n"
            "north,b,1,1\n south ,a,2,2\nsouth,a,1,3\nnorth,b,2,4\n"
            "east,c,2,5\neast,c,1,6\n"
        )
        schema = PanelSchema(unit="unit", time="year", cluster="region")
        got, _ = _assert_same_load(path, schema)
        assert got.cluster_id == ("south", "north", "east")

    def test_one_numpy_read(self, rng, monkeypatch, tmp_path):
        path = write_panel_csv(tmp_path / "p.csv", random_panel(rng, 6, 4))
        loadtxt, calls = np.loadtxt, []

        def counted(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        monkeypatch.setattr(twfekit.panel, "_read_rows", None)  # not called
        load_panel(path, SCHEMA)
        assert len(calls) == 1

    def test_numeric_cluster_that_is_a_series(self, monkeypatch, tmp_path):
        # a column read both as labels and as numbers goes row by row
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,year,y,c\n"
            "a,1,1.5,7\na,2,2.5,7\nb,1,3.5,8\nb,2,4.5,8\nc,1,5.5,7\nc,2,6.5,7\n"
        )
        read_rows, calls = twfekit.panel._read_rows, []

        def counted(*args):
            calls.append(args)
            return read_rows(*args)

        monkeypatch.setattr(twfekit.panel, "_read_rows", counted)
        schema = PanelSchema(unit="unit", time="year", series=("y", "c"), cluster="c")
        got, _ = _assert_same_load(path, schema)
        assert len(calls) == 1
        assert got.cluster_id == ("7", "8", "7")
        assert got.values("c").tolist() == [[7, 7], [8, 8], [7, 7]]

    def test_blank_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,year,y\n\na,1,1\n , ,  \n,,\na,2,2\n  \nb,1,3\nb,2,4\n\n"
        )
        _assert_same_load(path)

    def test_longer_than_one_chunk(self, rng, tmp_path):
        rows = _long_rows(*LONG, rng)
        rows = [rows[k] for k in rng.permutation(len(rows))]
        rows.insert(ROWS - 1, "")
        rows.insert(ROWS + 5, ",,,")
        path = tmp_path / "long.csv"
        path.write_text("\n".join(["unit,year,y,x"] + rows) + "\n")
        got, _ = _assert_same_load(path)
        assert got.values("y").shape == LONG


class TestLoadPanelErrorsMatchLoop:
    """Line-numbered errors equal to the former loader's, wherever the bad
    row sits."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN "])
    def test_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(f"unit,year,y\na,1,1\na,2,{cell}\nb,1,3\nb,2,4\n")
        message = _assert_same_error(path)
        assert message.startswith("line 3: non-finite value")

    def test_bad_row_after_blank_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,year,y\na,1,1\n\n\na,2,1,9\nb,1,3\nb,2,4\n")
        assert _assert_same_error(path) == "line 5: expected 3 fields, got 4"

    @pytest.mark.parametrize(
        "bad",
        [
            "u0003,2001,1.0",  # ragged
            ",2001,1.0,2.0",  # no unit label
            "u0003,2001.5,1.0,2.0",  # non-integer time label
            "u0003,2001,oops,2.0",  # non-numeric value
            "u0003,2001,1.0,inf",  # non-finite value
            "u0000,2001,1.0,2.0",  # duplicate of a first-chunk cell
        ],
    )
    def test_bad_row_past_first_chunk(self, rng, tmp_path, bad):
        rows = _long_rows(*LONG, rng)
        rows.insert(ROWS + 100, bad)
        path = tmp_path / "long.csv"
        path.write_text("\n".join(["unit,year,y,x"] + rows) + "\n")
        message = _assert_same_error(path)
        assert message.startswith(f"line {ROWS + 102}:")

    def test_non_integer_time_label_mid_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,year,y\na,1,1\na,2,2\nb,1,3\nb,two,4\nc,1,5\nc,2,6\n"
        )
        assert _assert_same_error(path) == (
            "line 5: time label 'two' is not an integer"
        )

    @pytest.mark.parametrize(
        "text",
        [
            # the first of several bad rows is named
            "unit,year,y\na,1,1\na,1,2\nb,x,3\nb,2,inf\n",
            "unit,year,y\na,1,nan\na,1,2\n",
            # a cluster label that changes
            "unit,year,region,y\na,1,n,1\nb,1,s,2\na,2,s,3\nb,2,s,4\n",
            # whole-file errors after every row parsed
            "unit,year,region,y\n",
            "unit,year,region,y\na,1,n,1\na,3,n,2\nb,1,n,3\nb,3,n,4\n",
            "unit,year,region,y\na,1,n,1\na,2,n,2\nb,1,n,3\nb,3,n,4\n",
            # header errors
            "unit,year,y,y\na,1,1,2\n",
            "unit,year\na,1\n",
        ],
    )
    def test_errors(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text(text)
        schema = (
            PanelSchema(unit="unit", time="year", cluster="region")
            if "region" in text
            else SCHEMA
        )
        _assert_same_error(path, schema)

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_sparse_file(self, tmp_path, duplicate):
        # 400 units with one row each over 400 periods: the unit x period
        # grid is far larger than the file
        rows = [f"u{i:03d},{i},1.0" for i in range(400)]
        if duplicate:
            rows.append("u123,123,2.0")
        path = tmp_path / "p.csv"
        path.write_text("\n".join(["unit,year,y"] + rows) + "\n")
        message = _assert_same_error(path)
        assert ("duplicate" in message) == duplicate

    def test_time_label_beyond_64_bits(self, tmp_path):
        path = tmp_path / "p.csv"
        big = 2**63
        path.write_text(
            f"unit,year,y\na,{big},1\na,{big + 1},2\nb,{big},3\nb,{big + 1},4\n"
        )
        with pytest.raises(PanelError, match="64-bit"):
            load_panel(path, SCHEMA)

    def test_time_labels_span_the_64_bit_range(self, tmp_path):
        # the step between the extreme labels wraps as a signed difference
        path = tmp_path / "p.csv"
        low, high = -(2**63), 2**63 - 1
        path.write_text(f"unit,year,y\na,{low},1\na,{high},2\n")
        with pytest.raises(PanelError, match=f"no observations in period {low + 1}"):
            load_panel(path, SCHEMA)


# field text for the differential test: quotes, NULs, byte-order marks,
# comment signs, non-ASCII letters, delimiters and line ends
FRAGMENTS = [
    "a", "b", " ", "\u00e9", "#", "\x00", "\ufeff", '"', '""', '"a"x',
    ' "a"', "\r", "\r\n", "\n", ";", ",", "\t",
]
# labels that are one field each, however odd
LABELS = [
    "a", "b", " c", "\u00e9", "a\x00", "\x00b", "\ufeffc", "#d", '"e""f"',
    '"g"x', ' "h"', '"i\r\nj"', '"k\rl"', '"m\nn"', '"o,p"', '"q;r"',
    '"s\tt"',
]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# each a function of a year's plain spelling; all but the last are read as
# the year, some only by Python
YEARS = [
    lambda y: f"+{y}",
    lambda y: f" {y} ",
    lambda y: f'"{y}"',
    lambda y: f"{y}.0",
    lambda y: f"{y[:-3]}_{y[-3:]}",
    lambda y: f"{y}e0",
    lambda y: y.translate(ARABIC_INDIC),
    lambda y: f"{y}.5",
]
# values that numpy and float() read alike, then values that only float()
# reads, then values that float() refuses or that are not finite
VALUES = ["1.5", "-0.25", "7", "-0", "1e3", "+1", " 2 ", '"4"']
ODD_VALUES = ["1_000", "\u0663", "nan", "inf", "", "x", "1e400", "3\x00"]


@st.composite
def hostile_files(draw):
    """A delimited file's text, whether a byte-order mark starts it, its
    delimiter, schema and balance rule.  Each kind of odd text is in a file
    or not, in one row or a few."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    clustered = draw(st.booleans())
    columns = ["unit", "year", "y", "x", "note"] + ["region"] * clustered
    columns = draw(st.permutations(columns))
    fragments = st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=3)
    label = st.sampled_from(LABELS) | fragments.map("".join)
    sometimes = st.sampled_from([False] * 4 + [True])
    units = draw(st.lists(label, min_size=2, max_size=3, unique_by=str.strip))
    if draw(sometimes):  # a trailing NUL, which numpy's fixed-width strings drop
        units[-1] += "\x00"
    regions = st.sampled_from(["n", " n", "s", ""])
    years = [str(2000 + t) for t in range(draw(st.integers(2, 3)))]
    rows = [
        {"unit": unit, "year": year, "region": region, "note": "",
         "y": draw(st.sampled_from(VALUES)), "x": draw(st.sampled_from(VALUES))}
        for unit, region in zip(units, draw(st.lists(
            regions, min_size=len(units), max_size=len(units)
        )))
        for year in years
    ]

    def some_rows(count=st.integers(1, 2)):
        return [draw(st.sampled_from(rows)) for _ in range(draw(count))]

    if draw(sometimes):
        for row in some_rows():
            row["year"] = draw(st.sampled_from(YEARS))(row["year"])
    if draw(sometimes):
        for row in some_rows():
            row["y"] = draw(st.sampled_from(ODD_VALUES))
    if draw(sometimes):
        for row in some_rows():
            row["region"] = draw(regions)
    if draw(sometimes):
        for row in some_rows():
            row["note"] = draw(fragments.map("".join))
    if draw(sometimes):  # a field over csv's size limit
        some_rows(st.just(1))[0]["note"] = "n" * (csv.field_size_limit() + 1)
    if draw(sometimes):  # a missing cell
        rows.remove(some_rows(st.just(1))[0])
    if draw(sometimes):  # a repeated cell
        rows += [dict(row) for row in some_rows(st.just(1))]
    lines = draw(st.permutations(
        [delimiter.join(row[c] for c in columns) for row in rows]
    ))
    if draw(sometimes):
        blanks = ["", "  ", delimiter * (len(columns) - 1), f" {delimiter} "]
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(blanks)))
    # a quoted header cell may span lines, which moves where the data begins
    note = st.sampled_from(["note", '"note"', '"no\nte"', '"no\r\nte"', '"no\rte"'])
    header = [draw(note) if c == "note" else c for c in columns]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([delimiter.join(header)] + lines) + draw(
        st.sampled_from(["", end])
    )
    schema = PanelSchema(
        unit="unit", time="year", series=("y", "x"),
        cluster="region" if clustered else None,
    )
    balance = draw(st.sampled_from(["error", "drop-units"]))
    return text, draw(st.booleans()), delimiter, schema, balance


def _outcome(load, path, schema, delimiter, balance):
    """What ``load`` makes of the file: the panel's labels, series bytes and
    warnings, or its error's text.  A row that csv cannot read is named by
    its line, as ``load_panel`` names it."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            panel = load(path, schema, delimiter=delimiter, balance=balance)
    except PanelError as exc:
        return str(exc)
    except csv.Error as exc:
        with open(path, newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            with pytest.raises(csv.Error):
                for _ in reader:
                    pass
        return f"line {reader.line_num}: {exc}"
    series = {name: panel.values(name).tobytes() for name in panel.series}
    messages = [str(w.message) for w in caught]
    return panel.units, panel.periods, panel.cluster_id, series, messages


class TestLoadPanelDifferential:
    """Generated files that numpy's reader may refuse or read otherwise
    than csv: ``load_panel`` must load each exactly as the former row-by-row
    loader does, or raise its error."""

    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=hostile_files())
    def test_matches_the_row_by_row_loader(self, tmp_path, case):
        text, bom, delimiter, schema, balance = case
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        args = path, schema, delimiter, balance
        want = _outcome(oracles.load_panel_loop, *args)
        # the former loader took a byte-order mark for header text
        path.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
        assert _outcome(load_panel, *args) == want


# the integer arguments of the API, under the rule of the CSV loader's time
# labels: integral floats and numpy integers are accepted, any other value
# raises naming the argument (PanelError for a period label)
_YEARS = make_panel(
    {name: np.random.default_rng(1).normal(size=(4, 6)) for name in "xy"},
    first_period=1990,
)
_TREND = PretrendConfig("x", -3, -1)


def _periods(first):
    """The stored periods of a panel from ``first``, each with its type."""
    panel = BalancedPanel("ab", (first, first + 1), {})
    return [(type(p), p) for p in panel.periods]


INTEGER_ARGUMENTS = [
    # (id, call of the value, argument named, error, an integral value)
    ("periods", _periods, "each entry of periods", PanelError, 1990),
    ("period_index", _YEARS.period_index, "label", PanelError, 1992),
    ("fd", lambda v: fd(_YEARS, "y", "x", v), "k", ValueError, 2),
    ("GapRange", lambda v: GapRange(v, 3), "k_min", ValueError, 1),
    ("PretrendConfig", lambda v: PretrendConfig("y", v, -3),
     "window_start_offset", ValueError, -12),
    ("count_pairs", count_pairs, "n_periods", ValueError, 5),
    ("pretrend_covariate",
     lambda v: pretrend_covariate(_YEARS, _TREND, v).tolist(),
     "t", PanelError, 1994),
    ("simulate_replication",
     lambda v: simulate_replication(
         scenario_preset("parallel_trends", n_units=4, n_periods=3), v
     ).panel.values("y").tolist(),
     "index", ValueError, 1),
    ("DgpConfig.n_units",
     lambda v: simulate(DgpConfig(n_units=v, n_periods=3)).panel.values(
         "y"
     ).tolist(),
     "n_units", ValueError, 4),
    ("DgpConfig.n_periods",
     lambda v: simulate(DgpConfig(n_units=4, n_periods=v)).panel.values(
         "y"
     ).tolist(),
     "n_periods", ValueError, 3),
]


@pytest.mark.parametrize(
    "call, name, error, value", [case[1:] for case in INTEGER_ARGUMENTS],
    ids=[case[0] for case in INTEGER_ARGUMENTS],
)
def test_integer_arguments(call, name, error, value):
    want = call(value)
    assert call(float(value)) == want
    assert call(np.int64(value)) == want
    with pytest.raises(error, match=f"^{name} must be an integer, got "):
        call(value + 0.5)
