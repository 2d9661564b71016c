"""Tests for the Figure-22 mechanism-coverage summary."""

import os
import subprocess
import sys

import repro
from repro.analysis.venn import VennSummary, classify_benchmarks


POTENTIAL = {"eon": 0.02, "vpr": 0.20, "swim": 1.2, "lucas": 0.5, "twolf": 0.8}
VICTIM = {"eon": 0.01, "vpr": 0.15, "swim": 0.0, "lucas": 0.1, "twolf": 0.03}
PREFETCH = {"eon": 0.0, "vpr": 0.005, "swim": 0.6, "lucas": 0.25, "twolf": -0.02}


class TestClassification:
    def test_few_stalls_set(self):
        s = classify_benchmarks(POTENTIAL, VICTIM, PREFETCH)
        assert s.few_stalls == {"eon"}

    def test_victim_only(self):
        s = classify_benchmarks(POTENTIAL, VICTIM, PREFETCH)
        assert "vpr" in s.victim_helped
        assert "twolf" in s.victim_helped
        assert "vpr" not in s.prefetch_helped

    def test_prefetch_only(self):
        s = classify_benchmarks(POTENTIAL, VICTIM, PREFETCH)
        assert "swim" in s.prefetch_helped - s.victim_helped

    def test_both(self):
        s = classify_benchmarks(POTENTIAL, VICTIM, PREFETCH)
        assert s.both_helped == {"lucas"}

    def test_improvement_is_max_of_mechanisms(self):
        s = classify_benchmarks(POTENTIAL, VICTIM, PREFETCH)
        assert s.improvement["lucas"] == 0.25
        assert s.improvement["vpr"] == 0.15

    def test_thresholds_configurable(self):
        s = classify_benchmarks(POTENTIAL, VICTIM, PREFETCH, help_threshold=0.2)
        assert "vpr" not in s.victim_helped

    def test_few_stalls_excluded_from_helped_sets(self):
        potential = {"x": 0.01}
        s = classify_benchmarks(potential, {"x": 0.5}, {"x": 0.5})
        assert "x" in s.few_stalls
        assert "x" not in s.victim_helped


class TestRender:
    def test_render_mentions_groups_and_numbers(self):
        s = classify_benchmarks(POTENTIAL, VICTIM, PREFETCH)
        text = s.render()
        assert "few memory stalls" in text
        assert "helped by both" in text
        assert "swim [60%]" in text

    def test_render_empty(self):
        text = VennSummary().render()
        assert "(none)" in text


#: Renders a summary whose few-stalls names all tie at 0% (as stand-ins
#: with no gain from either mechanism do) and one ahead of them.
TIED_RENDER = """
from repro.analysis.venn import classify_benchmarks
names = ["mesa", "gzip", "eon", "crafty", "bzip2", "twolf", "parser", "gap"]
potential = {n: 0.01 for n in names}
print(classify_benchmarks(potential, {"gap": 0.02}, {}).render())
"""


class TestTieOrder:
    def test_tied_improvements_sorted_by_name(self):
        names = ["mesa", "gzip", "eon", "crafty"]
        for order in (names, names[::-1]):
            s = VennSummary(improvement={"gap": 0.02})
            for n in order:
                s.few_stalls.add(n)
                s.improvement[n] = 0.0
            s.few_stalls.add("gap")
            assert ("few memory stalls          : gap [2%], crafty [0%], "
                    "eon [0%], gzip [0%], mesa [0%]") in s.render()

    def test_render_independent_of_hash_seed(self):
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
            outputs.add(subprocess.run(
                [sys.executable, "-c", TIED_RENDER], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outputs) == 1
        assert "bzip2 [0%], crafty [0%], eon [0%]" in outputs.pop()
