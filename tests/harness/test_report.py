"""Rendering helper tests."""

from repro.harness.report import render_series, render_table


def test_render_table_basic():
    text = render_table("T", ["name", "x", "y"], [["a", 1.5, 2], ["b", 3.25, 4]])
    assert "T" in text
    assert "a" in text and "1.50" in text
    assert text.count("\n") >= 4


def test_render_table_string_cells():
    text = render_table("T", ["k", "v"], [["key", "value"]])
    assert "value" in text


def test_render_series():
    text = render_series("S", {"one": [1.0, 2.0]}, ["p1", "p2"])
    assert "one" in text and "p1" in text and "2.00" in text


DESIGNS = ["intel-x86", "hops", "no-persist-queue", "strandweaver", "non-atomic"]


def test_render_table_widens_columns_to_design_names():
    text = render_table(
        "Figure 8", ["benchmark"] + DESIGNS, [["queue", 1.0, 1.25, 1.5, 1.75, 2.0]]
    )
    header = text.splitlines()[2]
    assert header.split() == ["benchmark"] + DESIGNS
    row = text.splitlines()[4]
    assert row.split() == ["queue", "1.00", "1.25", "1.50", "1.75", "2.00"]
    # Every value ends in the same column as its header.
    for name, value in zip(DESIGNS, row.split()[1:]):
        assert header.index(name) + len(name) == row.index(value) + len(value)


def test_render_table_that_fits_keeps_fixed_widths():
    text = render_table("T", ["name", "x", "y"], [["a", 1.5, 2], ["b", 3.25, 4]])
    assert text.splitlines() == [
        "T",
        "=",
        "name" + " " * 10 + " " * 11 + "x" + " " * 11 + "y",
        "-" * 38,
        "a" + " " * 13 + " " * 8 + "1.50" + " " * 11 + "2",
        "b" + " " * 13 + " " * 8 + "3.25" + " " * 11 + "4",
    ]
