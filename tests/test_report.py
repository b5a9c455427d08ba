import pytest

from randstep.harness import ErrorRow, ErrorTable
from randstep.report import emit_svg_loglog, render_svg_loglog


def two_row_table(schemes=("rbe",)):
    rows = []
    for scheme in schemes:
        rows += [
            ErrorRow(scheme, 16, 1 / 16, 4, 0.5, 0.6, 0.01, 1.0),
            ErrorRow(scheme, 32, 1 / 32, 4, 0.3, 0.4, 0.01, 1.0),
        ]
    return ErrorTable(rows)


def test_single_scheme_single_polyline():
    svg = render_svg_loglog(two_row_table())
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0].split()
    assert len(points) == 2  # two data points


def test_one_polyline_per_scheme():
    svg = render_svg_loglog(two_row_table(("rbe", "be", "rfe")))
    assert svg.count("<polyline") == 3


def test_reference_guides_are_dashed_lines():
    svg = render_svg_loglog(two_row_table())
    assert svg.count("stroke-dasharray") == 2
    assert "slope 0.5" in svg and "slope 1" in svg


def test_flat_errors_give_horizontal_polyline():
    rows = [
        ErrorRow("be", 16, 1 / 16, 1, 0.25, 0.25, 0.0, 1.0),
        ErrorRow("be", 32, 1 / 32, 1, 0.25, 0.25, 0.0, 1.0),
        ErrorRow("be", 64, 1 / 64, 1, 0.25, 0.25, 0.0, 1.0),
    ]
    svg = render_svg_loglog(ErrorTable(rows))
    pts = svg.split('points="')[1].split('"')[0].split()
    ys = {p.split(",")[1] for p in pts}
    assert len(ys) == 1


def test_empty_table_rejected(tmp_path):
    with pytest.raises(ValueError):
        render_svg_loglog(ErrorTable([]))
    with pytest.raises(ValueError):
        emit_svg_loglog(ErrorTable([]), tmp_path / "x.svg")


def test_nonpositive_errors_rejected():
    rows = [
        ErrorRow("be", 16, 1 / 16, 1, 0.0, 0.0, 0.0, 1.0),
        ErrorRow("be", 32, 1 / 32, 1, 0.1, 0.1, 0.0, 1.0),
    ]
    with pytest.raises(ValueError):
        render_svg_loglog(ErrorTable(rows))


@pytest.mark.parametrize("error", [float("inf"), float("nan")])
def test_non_finite_errors_rejected(error):
    # an infinite rms once reached math.floor and raised OverflowError
    rows = [
        ErrorRow("rbe", 16, 1 / 16, 1, 0.2, 0.2, 0.0, 1.0),
        ErrorRow("rfe", 16, 1 / 16, 1, 0.1, 0.1, 0.0, 0.0),
        ErrorRow("rfe", 32, 1 / 32, 1, error, error, 0.0, 0.0),
    ]
    with pytest.raises(ValueError, match="scheme rfe: errors must be positive and finite"):
        render_svg_loglog(ErrorTable(rows))


def test_emit_writes_standalone_svg(tmp_path):
    path = tmp_path / "chart.svg"
    emit_svg_loglog(two_row_table(("rbe", "be")), path)
    text = path.read_text()
    assert text.startswith("<svg xmlns=")
    assert text.rstrip().endswith("</svg>")


def _polyline_points(svg, index):
    chunk = svg.split("<polyline")[index + 1]
    pts = chunk.split('points="')[1].split('"')[0].split()
    return [tuple(float(v) for v in p.split(",")) for p in pts]


def test_fig1_left_chart_randomized_below_classical(fig1_left_desk, tmp_path):
    # pre-resolution region: the randomized curve sits below the
    # classical one (smaller error maps to larger pixel y)
    table, _, _ = fig1_left_desk
    path = tmp_path / "fig1_left.svg"
    emit_svg_loglog(table, path)
    svg = path.read_text()
    schemes = table.schemes()
    rbe_pts = _polyline_points(svg, schemes.index("rbe"))
    be_pts = _polyline_points(svg, schemes.index("be"))
    for (x_r, y_r), (x_b, y_b) in list(zip(rbe_pts, be_pts))[:5]:
        assert x_r == x_b
        assert y_r > y_b
