"""The figure registry covers the paper and matches DESIGN.md's index."""

import re
from pathlib import Path

import pytest

from repro.figures import registry
from repro.figures.registry import CONFIGS, REGISTRY, get_spec, select_specs
from repro.traces.workloads import SPEC2000

ROOT = Path(__file__).resolve().parent.parent.parent

#: A measured row of DESIGN.md's per-experiment index, whose last
#: column names the row's spec constant in ``repro.figures.registry``.
DESIGN_ROW_RE = re.compile(
    r"^\|\s*(Table 1|Fig \d+)\s*\|.*\|\s*`(\w+)`\s*\|\s*$", re.MULTILINE
)


def spec_constant_name(fig_id):
    """`fig01` -> `FIG01`, `table1` -> `TABLE1` (the registry convention)."""
    return fig_id.upper()


def design_rows():
    """``[(row label, fig_id, spec constant)]`` from DESIGN.md's index."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    return [
        (row, "table1" if row == "Table 1" else f"fig{int(row.split()[1]):02d}", constant)
        for row, constant in DESIGN_ROW_RE.findall(design)
    ]


class TestDesignCoverage:
    def test_every_design_figure_has_a_spec(self):
        """Each measured row of DESIGN.md's per-experiment index is registered
        under the spec constant the row names."""
        rows = design_rows()
        assert rows, "DESIGN.md per-experiment index not found"
        for row, fig_id, constant in rows:
            assert fig_id in REGISTRY, f"DESIGN.md lists {row} but REGISTRY lacks {fig_id}"
            assert constant == spec_constant_name(fig_id)
            assert getattr(registry, constant) is REGISTRY[fig_id]

    def test_registry_matches_design_exactly(self):
        """No orphan specs either: the registry IS the DESIGN.md index."""
        assert set(REGISTRY) == {fig_id for _, fig_id, _ in design_rows()}


class TestSpecIntegrity:
    @pytest.mark.parametrize("fig_id", list(REGISTRY))
    def test_spec_is_well_formed(self, fig_id):
        spec = REGISTRY[fig_id]
        assert spec.fig_id == fig_id
        assert spec.title
        assert spec.paper_shape
        assert set(spec.configs) <= set(CONFIGS)
        if spec.workloads is not None:
            assert set(spec.workloads) <= set(SPEC2000)

    def test_registry_is_in_paper_order(self):
        ids = list(REGISTRY)
        assert ids[0] == "table1"
        numbers = [int(i[3:]) for i in ids[1:]]
        assert numbers == sorted(numbers)


class TestSelection:
    def test_default_selects_everything_in_order(self):
        assert [s.fig_id for s in select_specs(None)] == list(REGISTRY)

    def test_subset_keeps_registry_order(self):
        specs = select_specs(["fig19", "fig02"])
        assert [s.fig_id for s in specs] == ["fig02", "fig19"]

    def test_unknown_handle_raises_with_hint(self):
        with pytest.raises(KeyError, match="fig99"):
            select_specs(["fig99"])
        with pytest.raises(KeyError, match="table1"):
            get_spec("bogus")
