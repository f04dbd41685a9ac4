"""Tests for the SVG renderer."""

import xml.etree.ElementTree as ET

import pytest

from repro.analysis.figures import FigureData
from repro.analysis.svgplot import render_svg, save_svg


def _figure():
    figure = FigureData(title="Test <figure>", x_label="x & stuff",
                        y_label="y")
    figure.add_series("alpha", [(0.0, 0.0), (0.5, 0.4), (1.0, 1.0)])
    figure.add_series("beta", [(0.0, 1.0), (1.0, 0.0)])
    return figure


class TestRenderSvg:
    def test_valid_xml(self):
        svg = render_svg(_figure())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_title_escaped(self):
        svg = render_svg(_figure())
        assert "Test &lt;figure&gt;" in svg
        assert "x &amp; stuff" in svg

    def test_one_path_per_series(self):
        svg = render_svg(_figure())
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        paths = root.findall(f"{ns}path")
        assert len(paths) == 2

    def test_legend_entries(self):
        svg = render_svg(_figure())
        assert "alpha" in svg
        assert "beta" in svg

    def test_empty_series_skipped(self):
        figure = _figure()
        figure.add_series("empty", [])
        svg = render_svg(figure)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}path")) == 2

    def test_degenerate_ranges(self):
        figure = FigureData(title="flat", x_label="x", y_label="y")
        figure.add_series("point", [(1.0, 2.0), (1.0, 2.0)])
        svg = render_svg(figure)
        ET.fromstring(svg)  # must still be valid

    def test_dense_series_decimated(self):
        figure = FigureData(title="dense", x_label="x", y_label="y")
        figure.add_series("cdf", [(i / 5000, i / 5000) for i in range(5000)])
        svg = render_svg(figure)
        path = next(line for line in svg.splitlines() if "<path" in line)
        assert path.count("L") <= 650

    def test_save_svg(self, tmp_path):
        path = tmp_path / "figure.svg"
        save_svg(_figure(), str(path))
        assert path.read_text().startswith("<svg")

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        # The write is temp-then-rename: a render that fails once the
        # temp file is open leaves the previous figure and no sibling.
        import repro.analysis.svgplot as svgplot

        path = tmp_path / "figure.svg"
        path.write_text("<svg>old</svg>")

        def fail(figure, **kwargs):
            raise RuntimeError("render failed")

        monkeypatch.setattr(svgplot, "render_svg", fail)
        with pytest.raises(RuntimeError):
            save_svg(_figure(), str(path))
        assert path.read_text() == "<svg>old</svg>"
        assert [p.name for p in tmp_path.iterdir()] == ["figure.svg"]

    def test_custom_size(self):
        svg = render_svg(_figure(), width=300, height=200)
        assert 'width="300"' in svg
        assert 'height="200"' in svg
