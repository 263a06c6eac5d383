import numpy as np
import pytest

from curvo import svgplot


class TestLinePlot:
    def test_values_are_read_as_floats(self):
        as_text = svgplot.line_plot([("a", ("0", "1", "2"), ("1.5", "-2", "3e-1"))])
        as_array = svgplot.line_plot([("a", np.arange(3), np.array([1.5, -2.0, 0.3]))])
        assert as_text == as_array

    @pytest.mark.parametrize("xs, ys", [((1.0, 2.0), (1.0,)), ((), ())])
    def test_series_needs_matching_non_empty_data(self, xs, ys):
        with pytest.raises(ValueError, match="series 'bad' needs matching, non-empty x/y data"):
            svgplot.line_plot([("ok", (0.0,), (1.0,)), ("bad", xs, ys)])

    def test_nothing_to_plot(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_plot([])

    def test_text_is_escaped(self):
        svg = svgplot.line_plot([("a<b", (0, 1), (0, 1))], title='"x" & y')
        assert ">a&lt;b</text>" in svg
        assert ">&quot;x&quot; &amp; y</text>" in svg
