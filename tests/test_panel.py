import warnings

import numpy as np
import pytest

import oracles
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
)
from twfekit.panel import _CHUNK_ROWS

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


# more rows than one chunk of the loader
LONG = (_CHUNK_ROWS // 20 + 7, 20)


class TestLoadPanelMatchesLoop:
    """The chunked loader against the former row-by-row loader."""

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

    def test_blank_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,year,y\n\na,1,1\n , ,  \n,,\na,2,2\n  \nb,1,3\nb,2,4\n\n"
        )
        _assert_same_load(path)

    def test_longer_than_one_chunk(self, rng, tmp_path):
        rows = _long_rows(*LONG, rng)
        rows = [rows[k] for k in rng.permutation(len(rows))]
        rows.insert(_CHUNK_ROWS - 1, "")
        rows.insert(_CHUNK_ROWS + 5, ",,,")
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
        rows.insert(_CHUNK_ROWS + 100, bad)
        path = tmp_path / "long.csv"
        path.write_text("\n".join(["unit,year,y,x"] + rows) + "\n")
        message = _assert_same_error(path)
        assert message.startswith(f"line {_CHUNK_ROWS + 102}:")

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
